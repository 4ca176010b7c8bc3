"""What a write costs — counted, never timed.

The counters are the program's own: ``monetdb.delete_visited`` (BAT rows
a delete had to look at), ``ir.postings_rebuilds`` (compactions: full
O(pairs) merges of the delta into a new base), ``ir.idf_refresh`` /
``ir.fragment_rebuilds`` (one per generation that is read) — and so are
the spans the read after a write opens, one per refresh step.
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
        url = f"Article:a{documents // 2:05d}:body"
        with telemetry_session() as telemetry:
            engine.remove(url)
            visited[documents], moved, rebuilds = _counters(
                telemetry, "monetdb.delete_visited", "monetdb.rows_moved",
                "ir.postings_rebuilds")
            assert rebuilds == 0
        # a tombstone: the document's ir:D row and its pairs stay, dead,
        # until compaction, so no BAT row is looked at or moved
        assert visited[documents] == moved == 0
    assert visited[400] == visited[1600]


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


def test_each_generation_read_is_one_span_per_refresh_step(engines):
    """The post-write refresh is visible as product spans: one IDF
    refresh and one layout per generation read, and no compaction."""
    engine = engines[1600]
    relations = engine.relations
    rng = random.Random(11)
    engine.search_fragmented("w0")  # read what earlier tests wrote
    steps = ("ir.idf_refresh", "ir.fragment_build")
    with telemetry_session() as telemetry:
        engine.reindex("Article:spans:body", _text(rng))     # add
        engine.search_fragmented("w1 w2")
        engine.search_fragmented("w3 w4")  # same generation: no spans
        engine.reindex("Article:a00011:body", _text(rng))    # remove + add
        engine.search_fragmented("w5 w6")
        engine.remove("Article:spans:body")
        engine.search_fragmented("w7 w8")
        spans = {name: telemetry.tracer.find_all(name)
                 for name in steps + ("ir.postings_build",)}
        rebuilds = _counters(telemetry, "ir.postings_rebuilds",
                             "ir.idf_refresh", "ir.fragment_rebuilds")
    assert rebuilds == (0, 3, 3)
    assert [len(spans[name]) for name in steps] == [3, 3]
    assert spans["ir.postings_build"] == []
    vocabulary = len(relations.IDF)
    assert len(relations.postings_index().by_term) == vocabulary
    assert spans["ir.idf_refresh"][-1].attributes == {"terms": vocabulary}
    assert spans["ir.fragment_build"][-1].attributes == {
        "terms": vocabulary, "fragments": 4}


def test_the_first_read_after_a_bulk_load_is_one_build_span():
    with telemetry_session() as telemetry:
        engine = _engine(40)
        builds = telemetry.tracer.find_all("ir.postings_build")
    pairs = engine.relations.stats()["pairs"]
    assert [(span.attributes["base"], span.attributes["delta"])
            for span in builds] == [(0, pairs)]
