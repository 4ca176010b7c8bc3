"""The built postings index makes a term's postings on first lookup.

A build sorts every pair into one segment and makes no
``PackedPostings``; a lookup makes one term's, as views over the
segment, and memoizes it.  So a patch may meet terms nobody ever looked
up (it must still equal a full build on every term), and concurrent
first lookups of one term must share the object one of them made.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.relations import IrRelations
from repro.telemetry import telemetry_session

from tests.kernels.conftest import build_relations

pytestmark = pytest.mark.kernels

WORDS = ["alpha", "beta", "gamma", "delta", "omega", "rare"]


def url(key: int) -> str:
    return f"Article:k{key}:body"


def contents(relations: IrRelations, index) -> dict:
    """term -> postings, by document (dense numbers differ between a
    patched and a built index); every ``dense`` must name its doc."""
    doc_ids = np.array(index.doc_ids, dtype=np.int64)
    by_term = {}
    for term, packed in index.by_term.items():
        assert doc_ids[packed.dense_view()].tolist() == list(packed.docs)
        flat, offsets = packed.position_columns()
        by_term[term] = (list(packed.docs), list(packed.tfs),
                         [flat[start:stop].tolist() for start, stop
                          in zip(offsets[:-1], offsets[1:])],
                         packed.max_tf, packed.unpositioned)
    return by_term


_steps = st.lists(st.tuples(st.sampled_from(["add", "remove", "reindex"]),
                            st.integers(0, 7),
                            st.lists(st.sampled_from(WORDS), max_size=6)),
                  min_size=1, max_size=12)


#: how the property's reads after its writes were served
READS = {"patches": 0, "builds": 0}


# six words hold a few dozen pairs, where the cost rule always builds
@pytest.mark.usefixtures("patch_whenever_possible")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.sampled_from(WORDS), max_size=6),
                min_size=1, max_size=6), _steps)
def test_a_patch_over_an_untouched_segment_equals_a_build(initial, steps):
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
        patched = relations.postings_index()
        rebuilds = telemetry.metrics.sum_counters("ir.postings_rebuilds")
        patches = len(telemetry.tracer.find_all("ir.postings_patch"))
    READS["patches"] += patches
    READS["builds"] += rebuilds
    built = relations._build_postings_index(relations.generation)
    assert contents(relations, patched) == contents(relations, built)
    assert len(patched.by_term) == len(built.by_term) == len(relations._df)
    assert set(patched.by_term) == set(relations._df)
    if patches:  # a patch shares the segment (a compaction builds)
        assert patched.by_term._columns is first.by_term._columns


def test_the_property_patched():
    """After the property (file order): the reads it compared were
    patches, not builds compared with builds."""
    if not sum(READS.values()):
        pytest.skip("the property did not run in this session")
    assert READS["patches"] > 0, READS


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


def test_a_patched_copy_owns_only_its_own_positions():
    """A made term's runs point into the segment's whole ``ir:POS``
    tail; the copy a patch makes gathers them, so it holds the term's
    positions and nothing else."""
    relations = build_relations(seed=14, docs=40)
    built = relations.postings_index().by_term[int(relations.term_oid("w5"))]
    assert len(built.pos_flat) == len(relations.POS) > sum(built.tfs)
    flat, offsets = built.position_columns()
    copied = built._copy()
    assert copied == built
    assert list(copied.pos_flat) == flat.tolist()
    assert list(copied.pos_starts) == offsets[:-1].tolist()


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
