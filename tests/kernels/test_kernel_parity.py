"""Bit-identical parity: the columnar kernels vs the scalar oracle.

The bar is not "close" — every ranking (scores included) and every
piece of work accounting must equal the per-posting loops of
``tests/kernels/topn_oracle.py``, for every combination of pruning,
refinement, idf patching and fragment layout.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.distributed import patch_fragment_idf
from repro.ir.fragmentation import fragment_by_idf
from repro.ir.ranking import query_term_oids, rank_tfidf
from repro.ir.relations import IrRelations
from repro.ir.topn import topn_cutoff, topn_fragmented

from tests.kernels import topn_oracle as oracle
from tests.kernels.conftest import QUERIES, build_relations

pytestmark = pytest.mark.kernels


def kernel_and_oracle(fragments, terms, n, **kwargs):
    columnar = topn_fragmented(fragments, terms, n, **kwargs)
    scalar = oracle.topn_fragmented(fragments, terms, n, **kwargs)
    return scalar, columnar


def assert_same(scalar, columnar):
    assert columnar.ranking == scalar.ranking  # scores included
    assert columnar.tuples_read == scalar.tuples_read
    assert columnar.fragments_read == scalar.fragments_read
    assert columnar.stopped_early == scalar.stopped_early


class TestTopNParity:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("n", [5, 10, 50])
    @pytest.mark.parametrize("prune", [True, False])
    def test_rankings_bit_identical(self, relations, fragments, query,
                                    n, prune):
        terms = query_term_oids(relations, query)
        assert_same(*kernel_and_oracle(fragments, terms, n, prune=prune))

    @pytest.mark.parametrize("query", QUERIES)
    def test_refine_parity(self, relations, fragments, query):
        terms = query_term_oids(relations, query)
        assert_same(*kernel_and_oracle(fragments, terms, 5,
                                       prune=True, refine=True))

    @pytest.mark.parametrize("query", ["w7 w0 trophy", "w25 w1 w2"])
    def test_refine_after_an_early_stop(self, relations, fragments, query):
        # n=1 stops with touched fragments still unread, so the refine
        # pass has a tail to complete
        terms = query_term_oids(relations, query)
        touched = sum(1 for fragment in fragments
                      if set(terms) & fragment.term_oids)
        scalar, columnar = kernel_and_oracle(fragments, terms, 1,
                                             prune=True, refine=True)
        assert_same(scalar, columnar)
        assert columnar.stopped_early
        assert columnar.fragments_read < touched

    def test_shuffled_term_order_parity(self, relations, fragments):
        terms = query_term_oids(relations, "w7 w0 trophy w2")
        shuffled = list(terms)
        random.Random(3).shuffle(shuffled)
        scalar, columnar = kernel_and_oracle(fragments, shuffled, 10)
        assert columnar.ranking == scalar.ranking
        # term order must not matter: the plan freezes one canonical
        # set-iteration order
        assert columnar.ranking == topn_fragmented(
            fragments, terms, 10).ranking

    def test_random_order_fragmentation_parity(self, relations):
        fragments = fragment_by_idf(relations, 4, order="random")
        terms = query_term_oids(relations, "w10 w2 w5")
        assert_same(*kernel_and_oracle(fragments, terms, 10))

    def test_patched_idf_view_parity(self, relations, fragments):
        # the distributed plan patches per-term idf with global weights
        # keyed by the term *string*; the patched view shares the packed
        # columns, so the kernel must follow
        global_idf = {f"w{i}": 0.25 / (i + 1) for i in range(40)}
        global_idf["trophy"] = 0.9
        patched = patch_fragment_idf(fragments, relations, global_idf)
        terms = query_term_oids(relations, "w7 w0 trophy")
        scalar, columnar = kernel_and_oracle(patched, terms, 10)
        assert_same(scalar, columnar)
        assert columnar.ranking != topn_fragmented(
            fragments, terms, 10).ranking  # patch took

    def test_single_fragment_layout(self, relations):
        fragments = fragment_by_idf(relations, 1)
        terms = query_term_oids(relations, "trophy melbourne")
        assert_same(*kernel_and_oracle(fragments, terms, 10))

    def test_out_of_vocabulary_query(self, relations, fragments):
        assert query_term_oids(relations, "zzz qqq") == []
        scalar, columnar = kernel_and_oracle(fragments, [], 10)
        assert columnar.ranking == scalar.ranking == []

    @pytest.mark.parametrize("query", QUERIES)
    def test_cutoff_parity(self, relations, query):
        fragments = fragment_by_idf(relations, 5)
        terms = query_term_oids(relations, query)
        for keep in range(len(fragments) + 2):
            for n in (1, 5, 10, 50):
                cut = topn_cutoff(fragments, terms, n, keep)
                reference = oracle.topn_cutoff(fragments, terms, n, keep)
                assert cut.ranking == reference.ranking, (keep, n)
                assert cut.tuples_read == reference.tuples_read
                assert cut.fragments_read == reference.fragments_read
                assert not cut.exact


class TestRankTfidfParity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_full_relation_scoring(self, relations, query):
        assert rank_tfidf(relations, query, 10) == \
            oracle.rank_tfidf(relations, query, 10)

    def test_unlimited_n(self, relations):
        assert rank_tfidf(relations, "w0 w1", None) == \
            oracle.rank_tfidf(relations, "w0 w1", None)

    def test_duplicate_query_terms_contribute_twice(self, relations):
        doubled = rank_tfidf(relations, "w0 w0", 10)
        assert doubled == oracle.rank_tfidf(relations, "w0 w0", 10)
        single = dict(rank_tfidf(relations, "w0", None))
        assert all(score == 2 * single[doc] for doc, score in doubled)


class TestKernelDispatch:
    def test_auto_dispatch_reports_body(self, relations, fragments):
        terms = query_term_oids(relations, "w0")
        result = topn_fragmented(fragments, terms, 5)
        assert result.details["kernel"] == "columnar"

    def test_forced_scalar_reports_scalar(self, relations, fragments):
        # the scalar body is only the oracle now, and says so
        terms = query_term_oids(relations, "w0")
        result = oracle.topn_fragmented(fragments, terms, 5)
        assert result.details["kernel"] == "scalar"

    def test_fresh_index_rebuild_keeps_parity(self):
        # mutate after fragmenting: kernel and oracle agree on the
        # rebuilt layout
        relations = build_relations(seed=11, docs=40)
        fragments = fragment_by_idf(relations, 3)
        relations.add_document("http://site/extra", "trophy w0 w0 w5")
        relations.refresh_idf()
        fragments = fragment_by_idf(relations, 3)
        terms = query_term_oids(relations, "trophy w0")
        scalar, columnar = kernel_and_oracle(fragments, terms, 10)
        assert_same(scalar, columnar)
        assert any(doc == relations.doc_oid("http://site/extra")
                   for doc, _ in columnar.ranking)


# -- the law over random inputs ------------------------------------------

VOCABULARY = [f"v{i}" for i in range(12)]
COMMON, RARE = VOCABULARY[:4], VOCABULARY[4:]
OUT_OF_VOCABULARY = ["zzz", "qqq"]


def random_relations(seed: int, docs: int) -> IrRelations:
    # a few common words in every document (low idf) and now and then a
    # rare one repeated (high idf, high tf): the gradient that lets
    # pruning stop with fragments still unread, so refinement runs
    rng = random.Random(seed)
    relations = IrRelations()
    for i in range(docs):
        words = [rng.choice(COMMON) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            words += [rng.choice(RARE)] * rng.randint(1, 4)
        relations.add_document(f"http://site/r{i}", " ".join(words))
    relations.refresh_idf()
    return relations


# duplicate and out-of-vocabulary query words included
queries = st.lists(st.sampled_from(VOCABULARY + OUT_OF_VOCABULARY),
                   min_size=1, max_size=6)
patches = st.none() | st.dictionaries(
    st.sampled_from(VOCABULARY + OUT_OF_VOCABULARY),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), docs=st.integers(1, 60), words=queries,
       n=st.integers(1, 12), prune=st.booleans(), refine=st.booleans(),
       fragment_count=st.integers(1, 6),
       order=st.sampled_from(["idf", "random"]), global_idf=patches,
       keep=st.integers(0, 7))
def test_kernels_equal_the_oracle(seed, docs, words, n, prune, refine,
                                  fragment_count, order, global_idf, keep):
    relations = random_relations(seed, docs)
    fragments = fragment_by_idf(relations, fragment_count, order=order)
    if global_idf is not None:
        fragments = patch_fragment_idf(fragments, relations, global_idf)
    query = " ".join(words)
    terms = query_term_oids(relations, query)

    assert_same(*kernel_and_oracle(fragments, terms, n, prune=prune,
                                   refine=refine))
    cut = topn_cutoff(fragments, terms, n, keep)
    reference = oracle.topn_cutoff(fragments, terms, n, keep)
    assert (cut.ranking, cut.tuples_read, cut.fragments_read) == \
        (reference.ranking, reference.tuples_read, reference.fragments_read)
    assert rank_tfidf(relations, query, n) == \
        oracle.rank_tfidf(relations, query, n)
