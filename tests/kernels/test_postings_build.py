"""Postings build parity: the columnar index equals the scalar oracle.

Every :class:`PackedPostings` column, the positions, ``max_tf``, the
``by_term`` order, every ``doc_*`` map and every per-slot column (urls,
live, segment codes and names) of the index over a compacted segment
must equal what the scalar per-pair build
(``tests/kernels/postings_oracle.py``) produces over the same pair rows
— after a bulk load, after a save and load, after removes, and on empty
relations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.relations import IrRelations
from repro.monetdb.atoms import Oid

from tests.kernels.conftest import build_relations
from tests.kernels.postings_oracle import (build_postings_index, compacted,
                                           pair_rows)

pytestmark = pytest.mark.kernels


def assert_parity(relations: IrRelations) -> None:
    built = compacted(relations).postings_index()
    oracle = build_postings_index(relations, relations.generation)
    assert list(built.by_term) == list(oracle.by_term)
    for term, packed in oracle.by_term.items():
        assert built.by_term[term] == packed, term
        assert [column.typecode for column in (
            packed.dense, packed.tfs, packed.tf_weights)] \
            == ["q", "q", "d"]
    assert built.doc_ids == oracle.doc_ids
    assert built.doc_dense == oracle.doc_dense
    assert built.urls == oracle.urls
    assert built.live == oracle.live
    assert built.class_codes == oracle.class_codes
    assert built.field_codes == oracle.field_codes
    assert built.class_names == oracle.class_names
    assert built.field_names == oracle.field_names


class TestParity:
    def test_after_a_bulk_load(self):
        assert_parity(build_relations(seed=3, docs=120))

    def test_after_a_container_round_trip(self, tmp_path):
        original = build_relations(seed=4, docs=60)
        original.save(tmp_path / "ir.bats")
        assert_parity(IrRelations.load(tmp_path / "ir.bats",
                                       original.generation))

    def test_after_removes(self):
        relations = build_relations(seed=5, docs=80)
        for number in range(0, 80, 3):
            relations.remove_document(f"http://site/d{number}")
        relations.add_document("http://site/late", "w0 w1 trophy trophy")
        assert_parity(relations)

    def test_on_empty_relations(self):
        assert_parity(IrRelations())
        relations = IrRelations()
        relations.add_document("Player:k1:history", "")  # a doc, no pairs
        assert_parity(relations)
        built = compacted(relations).postings_index()
        assert built.by_term == {}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 9),
                          st.lists(st.sampled_from(
                              ["alpha", "beta", "gamma", "delta", "omega"]),
                              max_size=8)),
                max_size=14),
       st.sets(st.integers(0, 9)))
def test_parity_over_random_histories(writes, removed):
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
    assert_parity(relations)


def test_df_and_collection_length_derive_like_a_scan(tmp_path):
    relations = build_relations(seed=9, docs=40)
    relations.remove_document("http://site/d7")
    relations.add_document("http://site/late", "w0 w1 w1 trophy")
    relations.save(tmp_path / "ir.bats")
    restored = IrRelations.load(tmp_path / "ir.bats", relations.generation)
    counts: dict[Oid, int] = {}
    for _, _, term, _, _ in pair_rows(relations):
        counts[term] = counts.get(term, 0) + 1
    assert dict(restored._df) == counts
    assert list(restored._df.items()) == list(relations._df.items())
    assert restored.collection_length == sum(
        tf for _, _, _, tf, _ in pair_rows(relations))
