"""Postings build parity: the columnar build equals the scalar oracle.

Every :class:`PackedPostings` column, the position runs, ``unpositioned``,
``max_tf``, the ``by_term`` order, every ``doc_*`` map and every
per-slot column (urls, live, segment codes and names) must equal
what the scalar per-pair build (``tests/kernels/postings_oracle.py``)
produces over the same relations — after a bulk load, after removes,
with POS-less pre-v2 pairs, on empty relations, and on pair columns that
are not positionally aligned.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.relations import IrRelations
from repro.monetdb.atoms import Oid
from repro.monetdb.catalog import Catalog
from repro.monetdb.persistence import load_catalog, save_catalog

from tests.kernels.conftest import build_relations
from tests.kernels.postings_oracle import build_postings_index

pytestmark = pytest.mark.kernels


def assert_parity(relations: IrRelations) -> None:
    built = relations._build_postings_index(relations.generation)
    oracle = build_postings_index(relations, relations.generation)
    assert list(built.by_term) == list(oracle.by_term)
    for term, packed in oracle.by_term.items():
        assert built.by_term[term] == packed, term
        assert [column.typecode for column in (
            packed.docs, packed.dense, packed.tfs, packed.tf_weights)] \
            == ["q", "q", "q", "d"]
    assert built.doc_ids == oracle.doc_ids
    assert built.doc_dense == oracle.doc_dense
    assert built.doc_lengths == oracle.doc_lengths
    assert built.urls == oracle.urls
    assert built.live == oracle.live
    assert built.class_codes == oracle.class_codes
    assert built.field_codes == oracle.field_codes
    assert built.class_names == oracle.class_names
    assert built.field_names == oracle.field_names


def drop_positions(relations: IrRelations, every: int) -> None:
    """Make every ``every``-th pair a pre-v2 pair (no ``ir:POS`` rows)."""
    pairs = list(dict.fromkeys(relations.POS.head))[::every]
    relations.POS.delete_heads(pairs)


class TestParity:
    def test_after_a_bulk_load(self):
        assert_parity(build_relations(seed=3, docs=120))

    def test_after_a_container_round_trip(self, tmp_path):
        original = build_relations(seed=4, docs=60)
        save_catalog(original.catalog, tmp_path / "ir.bats")
        assert_parity(IrRelations(load_catalog(tmp_path / "ir.bats")[0]))

    def test_after_removes(self):
        relations = build_relations(seed=5, docs=80)
        for number in range(0, 80, 3):
            relations.remove_document(f"http://site/d{number}")
        relations.add_document("http://site/late", "w0 w1 trophy trophy")
        assert_parity(relations)

    def test_with_pre_v2_pairs(self):
        relations = build_relations(seed=6, docs=50)
        drop_positions(relations, every=4)
        assert_parity(relations)
        index = relations._build_postings_index(relations.generation)
        assert any(packed.unpositioned for packed in index.by_term.values())
        assert any(0 in np.diff(packed.position_columns()[1])
                   for packed in index.by_term.values())

    def test_with_no_positions_at_all(self):
        relations = build_relations(seed=6, docs=20)
        drop_positions(relations, every=1)
        assert len(relations.POS) == 0
        assert_parity(relations)

    def test_on_empty_relations(self):
        assert_parity(IrRelations())
        relations = IrRelations()
        relations.add_document("Player:k1:history", "")  # a doc, no pairs
        assert_parity(relations)
        built = relations._build_postings_index(relations.generation)
        assert built.doc_lengths == {} and built.by_term == {}

    def test_unaligned_pair_columns_are_matched_by_head(self):
        relations = build_relations(seed=8, docs=30)
        catalog = Catalog()
        for name in relations.catalog.names():
            bat = relations.catalog.get(name)
            heads, tails = list(bat.head), list(bat.tail)
            if name in ("ir:DT:doc", "ir:TF"):
                heads, tails = heads[::-1], tails[::-1]
            if name == "ir:POS":  # pairs reversed, each run kept in order
                rows = sorted(range(len(heads)), key=lambda row: -heads[row])
                heads, tails = ([column[row] for row in rows]
                                for column in (heads, tails))
            catalog.create(name, bat.head_type, bat.tail_type).append_many(
                heads, tails)
        shuffled = IrRelations(catalog)
        assert not shuffled.DT_doc.head_ascending
        assert_parity(shuffled)
        assert shuffled.postings_index().by_term \
            == relations.postings_index().by_term


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 9),
                          st.lists(st.sampled_from(
                              ["alpha", "beta", "gamma", "delta", "omega"]),
                              max_size=8)),
                max_size=14),
       st.sets(st.integers(0, 9)), st.integers(1, 5))
def test_parity_over_random_histories(writes, removed, every):
    relations = IrRelations()
    for key, words in writes:
        url = f"Article:k{key}:title"
        if relations.doc_oid(url) is not None:
            relations.remove_document(url)
        relations.add_document(url, " ".join(words))
    for key in removed:
        url = f"Article:k{key}:title"
        if relations.doc_oid(url) is not None:
            relations.remove_document(url)
    drop_positions(relations, every=every + 1)
    assert_parity(relations)


def test_df_and_collection_length_derive_like_a_scan():
    relations = build_relations(seed=9, docs=40)
    restored = IrRelations(relations.catalog)
    counts: dict[Oid, int] = {}
    for term in relations.DT_term.tail:
        counts[term] = counts.get(term, 0) + 1
    assert list(restored._df.items()) == list(counts.items())
    assert restored.collection_length == sum(relations.TF.tail)
