"""The process backend weighs a repeated query term like every other
path: its workers run the one bag scan over the duplicated term list
the coordinator ships (``tests/cluster/test_repeated_terms.py`` holds
the single-node, static and thread-cluster cases)."""

import pytest

from repro.ir.distributed import DistributedIndex
from repro.monetdb.server import Cluster

from tests.cluster.test_repeated_terms import DOCUMENTS, EXPECTED, QUERY
from tests.remote.conftest import process_policy

pytestmark = pytest.mark.remote


def test_the_process_cluster_ranks_like_a_single_node(tmp_path):
    index = DistributedIndex(Cluster(2), fragment_count=2)
    index.add_documents(DOCUMENTS)
    index.start_remote(replication_factor=1,
                       snapshot_root=tmp_path / "snapshots")
    try:
        result = index.query(QUERY, process_policy())
    finally:
        index.stop_remote()
    assert not result.degraded
    assert [index.central.doc_url(doc) for doc, _ in result.ranking] \
        == EXPECTED
