"""Delta-or-compact law: a read after writes merges the delta into a
new base only once the delta has grown to the base's size.

The live tier's postings are a base segment plus a delta of the adds
since; a read serves both, and compacts (``ir.postings_rebuilds``, one
``ir.postings_build`` span) only when the delta holds as many pairs as
the base.  Counted, never timed, at N documents as at 4N: the read
after one add compacts nothing and makes the postings of exactly its
own terms, plus — when an earlier read had made some of the document's
terms — those again; a burst past the share compacts exactly once;
either read answers like the index over a compacted copy.
"""

import pytest

from repro.ir.ranking import query_term_oids, rank_tfidf
from repro.ir.relations import IrRelations
from repro.ir.text import analyze
from repro.telemetry import telemetry_session

from benchmarks.suite import corpus
from tests.kernels.postings_oracle import compacted
from tests.laws.conftest import SEED, N, documents

pytestmark = pytest.mark.kernels

#: two head terms and one the burst documents are unlikely to hold
QUERY = "w0001 w0002 w0700"


@pytest.fixture(params=[N, 4 * N], ids=["N", "4N"])
def relations(request):
    relations = IrRelations()
    for url, text in documents(request.param):
        relations.add_document(url, text)
    relations.postings_index()  # compacted: writes go to the delta
    return relations


def read_after(relations: IrRelations, writes) -> tuple[int, int, int]:
    """``(compactions, compaction spans, postings made)`` of a ranked
    read after ``writes``."""
    for url, text in writes:
        relations.add_document(url, text)
    with telemetry_session() as telemetry:
        rank_tfidf(relations, QUERY)
        return (telemetry.metrics.sum_counters("ir.postings_rebuilds"),
                len(telemetry.tracer.find_all("ir.postings_build")),
                telemetry.metrics.sum_counters("ir.postings_materialized"))


def burst(relations: IrRelations) -> None:
    """Add new documents until the delta is past the share: as many
    pairs as the base holds."""
    base = relations.stats()["pairs"]
    for url, text in corpus.documents(8 * N, SEED, "burst"):
        if relations.stats()["pairs"] >= 2 * base:
            return
        relations.add_document(url, text)
    raise AssertionError("the burst corpus is too small")


def test_the_read_after_one_add_compacts_nothing(relations):
    writes = corpus.documents(1, SEED, "one")
    terms = set(query_term_oids(relations, QUERY))
    assert read_after(relations, writes) == (0, 0, len(terms))


def test_a_write_remakes_only_the_made_terms_it_touched(relations):
    """Publishing makes again what a reader had made and the write
    touched — the query's terms the new document holds — and nothing
    else, so the read after it makes none: the read that sees a write
    pays for it, and pays the document's cost."""
    rank_tfidf(relations, QUERY)  # the query's terms are made
    (url, text), = corpus.documents(1, SEED, "one")
    relations.add_document(url, text)
    held = {relations.term_oid(term) for term in analyze(text)}
    touched = held & set(query_term_oids(relations, QUERY))
    with telemetry_session() as telemetry:
        relations.postings_index()
        published = telemetry.metrics.sum_counters("ir.postings_materialized")
    assert published == len(touched) > 0
    assert read_after(relations, []) == (0, 0, 0)


def test_a_burst_past_the_share_compacts_once(relations):
    burst(relations)
    assert read_after(relations, [])[:2] == (1, 1)
    assert read_after(relations, [])[:2] == (0, 0)


def test_either_read_answers_like_a_compacted_copy(relations):
    for write in (lambda: read_after(relations, corpus.documents(
            1, SEED, "one")), lambda: burst(relations)):
        write()
        served = relations.postings_index()
        built = compacted(relations).postings_index()
        assert dict(served.by_term.items()) == dict(built.by_term.items())
        assert rank_tfidf(relations, QUERY) \
            == rank_tfidf(compacted(relations), QUERY)
