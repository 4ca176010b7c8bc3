"""Fragmentation and top-N optimization: exactness, pruning, quality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BatError
from repro.ir.fragmentation import fragment_by_idf
from repro.ir.ranking import query_term_oids, rank_tfidf
from repro.ir.relations import IrRelations
from repro.ir.topn import quality_degrade, topn_cutoff, topn_fragmented


def _zipf_relations(documents=80, vocabulary=120, seed=3) -> IrRelations:
    rng = random.Random(seed)
    vocab = [f"term{i:03d}" for i in range(vocabulary)]
    weights = [1.0 / (i + 1) for i in range(vocabulary)]
    relations = IrRelations()
    docs = []
    for d in range(documents):
        words = rng.choices(vocab, weights=weights, k=60)
        if d % 9 == 0:
            words += ["grandslam", "finalist"]
        docs.append((f"http://x/d{d}", " ".join(words)))
    relations.add_documents(docs)
    return relations


@pytest.fixture(scope="module")
def relations() -> IrRelations:
    return _zipf_relations()


class TestFragmentation:
    def test_fragment_count_respected(self, relations):
        fragments = fragment_by_idf(relations, 6)
        assert len(fragments) == 6

    def test_fragments_cover_all_postings(self, relations):
        fragments = fragment_by_idf(relations, 6)
        assert fragments.total_tuples() == relations.stats()["pairs"]

    def test_idf_descends_across_fragments(self, relations):
        fragments = fragment_by_idf(relations, 6)
        minimums = [fragment.min_idf() for fragment in fragments]
        maximums = [max(fragment.idf.values())
                    for fragment in fragments.fragments]
        for earlier_min, later_max in zip(minimums, maximums[1:]):
            assert earlier_min >= later_max

    def test_locate_term(self, relations):
        fragments = fragment_by_idf(relations, 6)
        rare = relations.term_oid("grandslam")
        assert fragments.locate_term(rare) == 0  # rare = high idf = front

    def test_single_fragment(self, relations):
        fragments = fragment_by_idf(relations, 1)
        assert len(fragments) == 1
        assert fragments.total_tuples() == relations.stats()["pairs"]

    def test_invalid_count_raises(self, relations):
        with pytest.raises(BatError):
            fragment_by_idf(relations, 0)

    def test_random_order_supported(self, relations):
        fragments = fragment_by_idf(relations, 6, order="random")
        assert fragments.total_tuples() == relations.stats()["pairs"]

    def test_unknown_order_raises(self, relations):
        with pytest.raises(BatError):
            fragment_by_idf(relations, 6, order="alphabetical")


class TestExactness:
    @pytest.mark.parametrize("query", [
        "grandslam", "grandslam finalist", "term000 grandslam",
        "term000 term001 term002", "finalist term050",
    ])
    def test_pruned_topn_set_equals_exact(self, relations, query):
        # pruning guarantees the exact top-N *set*; members' partial
        # scores may order differently (see topn_fragmented docstring)
        fragments = fragment_by_idf(relations, 8)
        terms = query_term_oids(relations, query)
        exact = rank_tfidf(relations, query, n=10)
        pruned = topn_fragmented(fragments, terms, 10, prune=True)
        assert {doc for doc, _ in pruned.ranking} \
            == {doc for doc, _ in exact}

    @pytest.mark.parametrize("query", [
        "grandslam", "grandslam finalist", "term000 grandslam",
    ])
    def test_unpruned_order_equals_exact(self, relations, query):
        fragments = fragment_by_idf(relations, 8)
        terms = query_term_oids(relations, query)
        exact = rank_tfidf(relations, query, n=10)
        full = topn_fragmented(fragments, terms, 10, prune=False)
        assert [doc for doc, _ in full.ranking] \
            == [doc for doc, _ in exact]

    def test_pruning_reads_fewer_fragments(self, relations):
        fragments = fragment_by_idf(relations, 8)
        terms = query_term_oids(relations, "grandslam finalist")
        pruned = topn_fragmented(fragments, terms, 10, prune=True)
        full = topn_fragmented(fragments, terms, 10, prune=False)
        assert pruned.fragments_read <= full.fragments_read
        assert pruned.stopped_early

    def test_empty_query(self, relations):
        fragments = fragment_by_idf(relations, 8)
        result = topn_fragmented(fragments, [], 10)
        assert result.ranking == []


class TestCutoffAndQuality:
    def test_cutoff_reads_only_kept_fragments(self, relations):
        fragments = fragment_by_idf(relations, 8)
        terms = query_term_oids(relations, "term000 grandslam")
        cut = topn_cutoff(fragments, terms, 10, keep_fragments=2)
        assert cut.fragments_read <= 2
        assert not cut.exact

    def test_quality_increases_with_fragments_kept(self, relations):
        fragments = fragment_by_idf(relations, 8)
        query = "grandslam term000 term005 term020"
        terms = query_term_oids(relations, query)
        exact = rank_tfidf(relations, query, n=10)
        qualities = []
        for keep in (1, 4, 8):
            cut = topn_cutoff(fragments, terms, 10, keep_fragments=keep)
            qualities.append(quality_degrade(exact, cut.ranking))
        assert qualities[-1] == 1.0          # all fragments = exact
        assert qualities == sorted(qualities)  # monotone improvement

    def test_quality_of_empty_exact_is_one(self):
        assert quality_degrade([], [("d", 1.0)]) == 1.0

    def test_quality_of_disjoint_is_zero(self):
        assert quality_degrade([("a", 1.0)], [("b", 1.0)]) == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 10), st.integers(1, 10),
       st.sampled_from(["grandslam", "finalist term010",
                        "term000 term001 grandslam"]))
def test_pruned_always_exact_property(fragment_count, n, query):
    relations = _zipf_relations(documents=40, vocabulary=60, seed=11)
    fragments = fragment_by_idf(relations, fragment_count)
    terms = query_term_oids(relations, query)
    exact = rank_tfidf(relations, query, n=n)
    pruned = topn_fragmented(fragments, terms, n, prune=True)
    assert {doc for doc, _ in pruned.ranking} == {doc for doc, _ in exact}
