"""A generation's postings index makes a term's postings on first lookup.

Publishing a generation makes no ``PackedPostings``; a lookup makes one
term's — its base run as views over the base segment, followed by its
delta run — and memoizes it.  So a read after writes may meet terms
nobody ever looked up (it must still equal the index over the
compacted segment on every term), concurrent first lookups of one term
must share the object one of them made, and a published index must
answer the same however the relations change after it.
"""

import copy
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.engine import IrEngine
from repro.ir.ranking import query_term_oids
from repro.ir.relations import IrRelations
from repro.ir.topn import topn_fragmented
from repro.telemetry import telemetry_session

from tests.kernels.conftest import build_relations
from tests.kernels.postings_oracle import compacted, docs_of

pytestmark = pytest.mark.kernels

WORDS = ["alpha", "beta", "gamma", "delta", "omega", "rare"]


def url(key: int) -> str:
    return f"Article:k{key}:body"


def contents(relations: IrRelations, index) -> dict:
    """term -> postings, by document (dense numbers differ between a
    served and a compacted index)."""
    by_term = {}
    for term, packed in index.by_term.items():
        flat, offsets = packed.position_columns()
        by_term[term] = (docs_of(index.doc_ids, packed), list(packed.tfs),
                         [flat[start:stop].tolist() for start, stop
                          in zip(offsets[:-1], offsets[1:])],
                         packed.max_tf)
    return by_term


_steps = st.lists(st.tuples(st.sampled_from(["add", "remove", "reindex"]),
                            st.integers(0, 7),
                            st.lists(st.sampled_from(WORDS), max_size=6)),
                  min_size=1, max_size=12)


#: how the property's reads after its writes were served
READS = {"delta": 0, "compactions": 0}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.sampled_from(WORDS), max_size=6),
                min_size=1, max_size=6), _steps)
def test_a_read_over_an_untouched_base_equals_a_compaction(initial, steps):
    relations = IrRelations()
    for key, words in enumerate(initial):
        relations.add_document(url(key), " ".join(words))
    with telemetry_session() as telemetry:
        first = relations.postings_index()
        assert telemetry.metrics.sum_counters(
            "ir.postings_materialized") == 0
    for op, key, words in steps:
        held = relations.doc_oid(url(key)) is not None
        if op != "add" and held:
            relations.remove_document(url(key))
        if op != "remove" and (op == "reindex" or not held):
            relations.add_document(url(key), " ".join(words))
    with telemetry_session() as telemetry:
        served = relations.postings_index()
        compactions = telemetry.metrics.sum_counters("ir.postings_rebuilds")
    READS["compactions"] += compactions
    READS["delta"] += len(relations._delta) > 0
    built = compacted(relations).postings_index()
    assert contents(relations, served) == contents(relations, built)
    assert len(served.by_term) == len(built.by_term) == len(relations._df)
    assert set(served.by_term) == set(relations._df)
    assert list(served.by_term) == list(built.by_term)  # first appearance


def test_the_property_read_the_delta():
    """After the property (file order): the reads it compared were
    served over a delta, not compactions compared with compactions."""
    if not sum(READS.values()):
        pytest.skip("the property did not run in this session")
    assert READS["delta"] > 0, READS


def test_a_build_makes_no_postings_and_a_lookup_makes_one():
    relations = build_relations(seed=12, docs=40)
    with telemetry_session() as telemetry:
        def made() -> int:
            return telemetry.metrics.sum_counters("ir.postings_materialized")

        by_term = relations.postings_index().by_term
        assert made() == 0
        term = int(relations.term_oid("w5"))
        assert term in by_term and made() == 0
        first = by_term[term]
        assert by_term.get(term) is first and made() == 1
        assert by_term.get(-1) is None and made() == 1


def test_a_base_term_is_views_over_the_base():
    """A term the delta does not hold is made of zero-copy views over
    its run of the base, its positions one slice of the base's."""
    relations = build_relations(seed=14, docs=40)
    index = relations.postings_index()
    base = index.by_term.base
    made = index.by_term[int(relations.term_oid("w5"))]
    assert np.shares_memory(made.dense, base.dense)
    assert np.shares_memory(made.positions, base.positions)
    assert len(made.positions) == sum(made.tfs) < len(base.positions)


def test_concurrent_first_lookups_share_one_object():
    """More threads than cores, switching often, race the first lookup
    of each term: every thread must get the one memoized object."""
    relations = build_relations(seed=13, docs=60)
    by_term = relations.postings_index().by_term
    terms = [int(relations.term_oid(f"w{number}")) for number in range(30)]
    threads = 8
    barrier = threading.Barrier(threads, timeout=10)
    got = [[] for _ in range(threads)]

    def look(slot: int) -> None:
        for term in terms:
            barrier.wait()
            got[slot].append(by_term[term])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=look, args=(slot,))
                   for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for number, term in enumerate(terms):
        assert all(seen[number] is by_term[term] for seen in got)


def test_a_published_index_never_changes():
    """A reader holds generation g's index — a delta in it, some terms
    made and some not — while an add, a base remove, a delta remove and
    a compaction follow: the held index answers exactly as it did at g,
    with the same tuples read."""
    engine = IrEngine(fragment_count=3)
    for number in range(40):
        engine.index(url(number), " ".join(WORDS[number % 6:number % 6 + 3]
                                           * (1 + number % 3)))
    engine.search_fragmented("alpha beta")  # the first read compacts
    engine.index(url(90), "rare omega alpha rare")  # g holds a delta
    relations = engine.relations
    held = engine.fragments()
    index = relations.postings_index()
    twin = copy.deepcopy(held)  # answers the unmade terms as of g
    made, unmade = "alpha rare", "gamma delta omega"

    def answers(fragments, query):
        result = topn_fragmented(fragments, query_term_oids(relations,
                                                            query), 10)
        return result.ranking, result.tuples_read

    expected = {made: answers(held, made), unmade: answers(twin, unmade)}
    made = {relations.T.find(term) for term in
            index.by_term.views.keys() | index.by_term.owned.keys()}
    assert {"alpha", "rare"} <= made
    assert not {"gamma", "delta", "omega"} & made
    engine.index(url(91), "beta gamma rare rare")        # an add
    engine.remove(url(3))                                # a base remove
    engine.remove(url(90))                               # a delta remove
    relations._compact()                                 # a compaction
    assert relations._delta.docs == {}
    for query, answer in expected.items():
        assert answers(held, query) == answer, query
    assert dict(index.by_term.items()) \
        == dict(twin.fragments[0].packed._by_term.items())


def test_concurrent_first_reads_compact_once():
    """More threads than cores race the first read after a bulk load:
    the delta is merged once, and every thread gets the one index."""
    relations = IrRelations()
    for number in range(40):
        relations.add_document(url(number), " ".join(WORDS[number % 6:]))
    threads = 6
    barrier = threading.Barrier(threads, timeout=10)
    got = []

    def read() -> None:
        barrier.wait()
        got.append(relations.postings_index())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with telemetry_session() as telemetry:
            workers = [threading.Thread(target=read) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            compactions = telemetry.metrics.sum_counters(
                "ir.postings_rebuilds")
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert compactions == 1
    assert len(got) == threads and all(index is got[0] for index in got)


def made_terms(index) -> dict:
    return {**index.by_term.views, **index.by_term.owned}


def test_a_base_remove_keeps_the_made_views():
    """A remove is a tombstone: the base stays the same object, so a
    term the removed document does not hold keeps its zero-copy views
    into the next generation, and a term it holds is made again without
    the dead row."""
    relations = build_relations(seed=15, docs=40)
    index = relations.postings_index()
    for term in index.by_term:
        index.by_term[term]
    victim = "http://site/d7"
    doc = relations.doc_oid(victim)
    held = {term for term, packed in made_terms(index).items()
            if doc in docs_of(index.doc_ids, packed)}
    relations.remove_document(victim)
    after = relations.postings_index()
    assert after.by_term.base is index.by_term.base
    for term, packed in index.by_term.views.items():
        if term not in held:
            assert after.by_term.views[term] is packed
    for term in held:
        if term in after.by_term:
            assert doc not in docs_of(after.doc_ids, after.by_term[term])
    built = compacted(relations).postings_index()
    assert contents(relations, after) == contents(relations, built)


def test_remade_terms_own_their_columns():
    """The read after a write re-makes the touched, made terms in one
    batched pass; each gets columns of its own, so no two made terms'
    columns share memory (no batch array stays pinned by its untouched
    terms) and none is a view of the previous generation's."""
    relations = build_relations(seed=16, docs=40)
    relations.postings_index()
    relations.add_document("http://site/extra", "w0 w1 w2 w3 w5 w8 trophy")
    first = relations.postings_index()
    for term in first.by_term:
        first.by_term[term]
    relations.remove_document("http://site/d3")  # a base document
    relations.add_document("http://site/late", "w0 w1 w1 w2 w4 melbourne")
    relations.remove_document("http://site/extra")  # a delta document
    with telemetry_session() as telemetry:
        second = relations.postings_index()
        remade = telemetry.metrics.sum_counters("ir.postings_materialized")
        rows = telemetry.metrics.sum_counters("ir.publish_rows")
    fresh = [packed for term, packed in second.by_term.owned.items()
             if made_terms(first).get(term) is not packed]
    assert remade == len(fresh) > 0
    assert rows == len(second.doc_ids) + sum(map(len, fresh))
    every = {id(packed): packed for packed in [
        *made_terms(first).values(), *made_terms(second).values()]}
    columns = [(owner, column) for owner, packed in every.items()
               for column in (packed.dense, packed.tfs, packed.tf_weights,
                              packed.positions)]
    for number, (owner, column) in enumerate(columns):
        for other, against in columns[number + 1:]:
            if other != owner:
                assert not np.shares_memory(column, against)
    # nor is a re-made term's column a slice of an array another term
    # also slices: its whole buffer is its own
    for packed in fresh:
        for column in (packed.dense, packed.tfs, packed.tf_weights,
                       packed.positions):
            buffer = column if column.base is None else column.base
            for other, against in columns:
                if other != id(packed):
                    assert not np.shares_memory(buffer, against)
    built = compacted(relations).postings_index()
    assert contents(relations, second) == contents(relations, built)
