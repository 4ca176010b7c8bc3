"""The central copy of a clustered index stays bounded under writes.

No query publishes ``DistributedIndex.central`` (it only stems, reads
idf and maps urls), so it applies the delta-or-compact rule at its
writes: after rounds that reindex every document, the pair rows it
holds stay within twice its live pairs and ``ir:D`` within twice its
live documents, and the merged ranking still equals its own.
"""

import random

import pytest

from repro.core.config import ExecutionPolicy
from repro.ir.engine import ClusterIrEngine

from tests.cluster.conftest import corpus

pytestmark = pytest.mark.cluster

QUERY = "trophy melbourne w0 w3"


def test_reindex_rounds_keep_central_within_twice_its_live_size():
    engine = ClusterIrEngine(2, fragment_count=4)
    documents = corpus(documents=80)
    engine.index.add_documents(documents)
    central = engine.index.central
    rng = random.Random(41)
    for _ in range(4):
        for url, _ in documents:
            engine.reindex(url, rng.choice(documents)[1])
        merged = engine.index.query(QUERY, ExecutionPolicy(n=10)).ranking
        held = len(central._base.pairs) + len(central._delta.pairs)
        assert held <= 2 * central.stats()["pairs"]
        assert len(central.D) <= 2 * central.document_count()
    # last: the exact ranking publishes central, which compacts it too
    exact = engine.index.exact_central_ranking(QUERY, 10)
    assert [doc for doc, _ in merged] == [doc for doc, _ in exact]
    assert [score for _, score in merged] \
        == pytest.approx([score for _, score in exact])
