"""Fragment layout parity: the columnar build equals the scalar oracle.

After any walk of writes — add, remove, reindex, a term emptied and then
re-added, every document removed, a reload of the catalog — and on empty
relations, ``fragment_by_idf`` must lay out exactly what the scalar
build (``tests/kernels/fragment_oracle.py``) lays out: per fragment the
same terms in the same set iteration order, the same tuple counts, the
same idf floats in the same dict order, the very ``PackedPostings``
objects of the postings index, and the same score bounds — for 1, 2, 4,
7 and more fragments than terms, in both orders.  The ``ir:IDF``
relation a save writes from the df map must equal the scalar rewrite
column for column, storage class included, and ``idf`` must read the
same floats.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.fragmentation import fragment_by_idf
from repro.ir.relations import IrRelations
from repro.monetdb.bat import BAT

from tests.kernels import fragment_oracle

pytestmark = pytest.mark.kernels

WORDS = ["tennis", "trophy", "champion", "court", "final", "rare1",
         "rare2", "rare3"]
ORDERS = ("idf", "random")


def fragment_counts(relations: IrRelations) -> tuple[int, ...]:
    return 1, 2, 4, 7, len(relations._df) + 3


def scalar_idf(relations: IrRelations) -> BAT:
    """IDF as the scalar refresh wrote it: one Python float per term."""
    bat = BAT("oid", "flt", name="ir:IDF")
    df = relations._df
    bat.append_many(list(df), [1.0 / count for count in df.values()])
    return bat


def assert_same_idf(relations: IrRelations) -> None:
    stored = relations._stored().get("ir:IDF")
    expected = scalar_idf(relations)
    assert stored.raw_columns() == expected.raw_columns()
    assert stored.storage() == expected.storage() == ("q", "d")
    assert stored.head_ascending == expected.head_ascending
    assert [relations.idf(term) for term in expected.head] \
        == list(expected.tail)


def assert_same_layout(relations: IrRelations, count: int,
                       order: str) -> None:
    built = fragment_by_idf(relations, count, order)
    expected = fragment_oracle.fragment_by_idf(relations, count, order)
    assert built.doc_ids is expected.doc_ids
    assert len(built) == len(expected)
    for ours, theirs in zip(built, expected):
        assert ours.index == theirs.index
        assert list(ours.term_oids) == list(theirs.term_oids)
        assert ours.tuples == theirs.tuples
        assert list(ours.idf.items()) == list(theirs.idf.items())
        assert list(ours.packed) == list(theirs.packed)
        assert all(ours.packed[term] is packed
                   for term, packed in theirs.packed.items())
        assert [ours.max_score_bound(term) for term in ours.term_oids] \
            == [theirs.idf[term] * max(theirs.packed[term].tfs)
                for term in theirs.term_oids]


def assert_parity(relations: IrRelations) -> None:
    for count in fragment_counts(relations):
        for order in ORDERS:
            assert_same_layout(relations, count, order)
    assert_same_idf(relations)


def url(key: int) -> str:
    return f"Article:k{key}:body"


def apply(relations: IrRelations, step: tuple) -> IrRelations:
    """One write of a walk; returns the relations to go on with."""
    op = step[0]
    if op == "add" and relations.doc_oid(url(step[1])) is None:
        relations.add_document(url(step[1]), " ".join(step[2]))
    elif op == "reindex":
        if relations.doc_oid(url(step[1])) is not None:
            relations.remove_document(url(step[1]))
        relations.add_document(url(step[1]), " ".join(step[2]))
    elif op == "remove" and relations.doc_oid(url(step[1])) is not None:
        relations.remove_document(url(step[1]))
    elif op == "remove_all":
        for key in sorted(relations._doc_oids):
            relations.remove_document(key)
    elif op == "reload":  # the document frequencies re-derived from DT
        return IrRelations(relations.catalog)
    return relations


def walk(steps, read_every_step: bool = True) -> IrRelations:
    relations = IrRelations()
    assert_parity(relations)
    for step in steps:
        relations = apply(relations, step)
        if read_every_step:
            assert_parity(relations)
    assert_parity(relations)
    return relations


_words = st.lists(st.sampled_from(WORDS), max_size=6)
_keys = st.integers(0, 5)
_steps = st.one_of(
    st.tuples(st.just("add"), _keys, _words),
    st.tuples(st.just("reindex"), _keys, _words),
    st.tuples(st.just("remove"), _keys),
    st.tuples(st.just("remove_all")),
    st.tuples(st.just("reload")))


class TestWalks:
    def test_empty_relations(self):
        relations = IrRelations()
        assert_parity(relations)
        layout = fragment_by_idf(relations, 4)
        assert len(layout) == 1 and not layout.fragments[0].term_oids

    def test_a_document_without_terms(self):
        walk([("add", 0, [])])

    def test_add_remove_reindex(self):
        walk([("add", 0, ["tennis", "trophy", "tennis"]),
              ("add", 1, ["tennis", "court", "final"]),
              ("add", 2, ["trophy", "rare1", "rare2", "final"]),
              ("reindex", 1, ["champion", "court", "court"]),
              ("remove", 0),
              ("add", 3, WORDS)])

    def test_a_term_emptied_then_re_added(self):
        # "rare1" loses its only holder and comes back last in the df
        # map while keeping its old, small oid: the oid tie-break and the
        # IDF row order now disagree
        relations = walk([("add", 0, ["rare1", "tennis"]),
                          ("add", 1, ["tennis", "trophy", "court"]),
                          ("add", 2, ["trophy", "court", "final"]),
                          ("remove", 0),
                          ("add", 3, ["rare1", "final"])])
        rare = relations.term_oid("rare1")
        assert list(relations._df)[-1] == rare
        assert rare < max(relations._df)

    def test_remove_all_then_refill(self):
        walk([("add", 0, ["tennis", "trophy"]), ("add", 1, ["court"]),
              ("remove_all",), ("add", 2, ["court", "rare3"])])

    def test_a_reload_between_writes(self):
        walk([("add", 0, ["rare2", "court"]), ("add", 1, ["court", "final"]),
              ("remove", 0), ("add", 2, ["rare2", "final"]), ("reload",),
              ("reindex", 1, ["tennis", "rare2"])])

    def test_writes_between_reads(self):
        walk([("add", key, WORDS[key:key + 4]) for key in range(6)]
             + [("remove", 2), ("reindex", 4, ["rare3"]), ("remove", 0)],
             read_every_step=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_steps, max_size=12), st.booleans())
def test_parity_over_random_walks(steps, read_every_step):
    walk(steps, read_every_step)
