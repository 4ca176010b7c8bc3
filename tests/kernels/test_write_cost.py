"""What a write costs — counted, never timed.

The counters are the program's own: ``monetdb.delete_visited`` (BAT rows
a delete had to look at), ``ir.postings_rebuilds`` (full O(pairs) builds
of the postings index), ``ir.idf_refresh`` / ``ir.fragment_rebuilds``
(one per generation that is read).
"""

import random

import pytest

from repro.ir.engine import IrEngine
from repro.telemetry import telemetry_session

pytestmark = pytest.mark.kernels

TERMS = 80
VOCABULARY = [f"w{i}" for i in range(1500)]


def _text(rng: random.Random) -> str:
    return " ".join(rng.sample(VOCABULARY, TERMS))


def _engine(documents: int) -> IrEngine:
    rng = random.Random(documents)
    engine = IrEngine(fragment_count=4)
    for number in range(documents):
        engine.index(f"Article:a{number:05d}:body", _text(rng))
    engine.search_fragmented("w1 w2 w3")  # index, IDF, fragments built
    return engine


def _counters(telemetry, *names) -> tuple:
    return tuple(telemetry.metrics.sum_counters(name) for name in names)


@pytest.fixture(scope="module")
def engines():
    return {documents: _engine(documents) for documents in (400, 1600)}


def test_remove_visits_the_document_not_the_corpus(engines):
    visited = {}
    for documents, engine in engines.items():
        with telemetry_session() as telemetry:
            engine.remove(f"Article:a{documents // 2:05d}:body")
            visited[documents], rebuilds = _counters(
                telemetry, "monetdb.delete_visited", "ir.postings_rebuilds")
            assert rebuilds == 0
    # four pair relations x 80 pairs + the one row of D, at either size
    assert visited[400] == visited[1600] == 4 * TERMS + 1


def test_write_then_read_never_rebuilds_the_postings_index(engines):
    engine = engines[400]
    rng = random.Random(7)
    names = ("ir.postings_rebuilds", "ir.idf_refresh", "ir.fragment_rebuilds")
    with telemetry_session() as telemetry:
        for cycle in range(6):
            url = f"Article:live{cycle}:body"
            engine.reindex(url, _text(rng))                    # add
            assert engine.search_fragmented(f"w{cycle} w9").ranking
            engine.reindex("Article:a00007:body", _text(rng))  # remove + add
            engine.search_fragmented("w3 w4")
            engine.remove(url)
            engine.search_fragmented("w5 w6")
            engine.search_fragmented("w7 w8")  # same generation: memoized
            # one refresh per generation that was read, never a rebuild
            assert _counters(telemetry, *names) == \
                (0, 3 * (cycle + 1), 3 * (cycle + 1))
