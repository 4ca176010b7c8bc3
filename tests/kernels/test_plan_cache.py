"""The compiled-plan cache: LRU unit behavior and the top-N wiring."""

import pytest

from repro.core.plan_cache import PlanCache, get_plan_cache
from repro.ir.fragmentation import FragmentSet, fragment_by_idf
from repro.ir.ranking import query_term_oids
from repro.ir.topn import topn_fragmented

pytestmark = pytest.mark.kernels


class TestPlanCacheUnit:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        plan, hit = cache.get_or_compile("k", lambda: "plan")
        assert (plan, hit) == ("plan", False)
        plan, hit = cache.get_or_compile("k", lambda: "other")
        assert (plan, hit) == ("plan", True)  # cached, not recompiled
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_at_capacity(self):
        cache = PlanCache(capacity=2)
        cache.get_or_compile("a", lambda: 1)
        cache.get_or_compile("b", lambda: 2)
        cache.get_or_compile("a", lambda: 0)   # refresh a's recency
        cache.get_or_compile("c", lambda: 3)   # evicts b, not a
        assert cache.get_or_compile("a", lambda: 9) == (1, True)
        assert cache.get_or_compile("b", lambda: 9) == (9, False)

    def test_invalidate_drops_everything(self):
        cache = PlanCache(capacity=4)
        cache.get_or_compile("a", lambda: 1)
        cache.get_or_compile("b", lambda: 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.invalidate() == 0

    def test_stats_shape(self):
        cache = PlanCache(capacity=3)
        cache.get_or_compile("a", lambda: 1)
        cache.get_or_compile("a", lambda: 1)
        assert cache.stats() == {"entries": 1, "capacity": 3,
                                 "hits": 1, "misses": 1}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            PlanCache(capacity=0)

    def test_process_wide_singleton(self):
        assert get_plan_cache() is get_plan_cache()


class TestTopNPlanCacheWiring:
    def test_repeated_shape_hits(self, relations, fragments):
        terms = query_term_oids(relations, "w0 w3")
        first = topn_fragmented(fragments, terms, 10)
        again = topn_fragmented(fragments, terms, 10)
        # the very first execution may or may not hit (the process-wide
        # cache is shared across tests); the repeat must hit
        assert again.details["plan_cache_hit"] is True
        assert again.ranking == first.ranking

    def test_plan_cache_false_bypasses(self, relations, fragments):
        terms = query_term_oids(relations, "w0 w3")
        topn_fragmented(fragments, terms, 10)  # warm the shape
        cold = topn_fragmented(fragments, terms, 10, plan_cache=False)
        assert cold.details["plan_cache_hit"] is False
        assert cold.ranking == topn_fragmented(fragments, terms,
                                               10).ranking

    def test_tokenless_fragments_never_cached(self, relations):
        # hand-built sets carry plan_token=None: caching on object
        # identity would resurrect plans across rebuilds
        assert FragmentSet().plan_token is None
        terms = query_term_oids(relations, "w0")
        result = topn_fragmented(FragmentSet(), terms, 5)
        assert result.details["plan_cache_hit"] is False
        # an empty set has an empty universe: the kernel answers nothing
        assert result.ranking == []

    def test_distinct_shapes_are_distinct_entries(self, relations,
                                                  fragments):
        terms = query_term_oids(relations, "w10 w2 w5")
        before = get_plan_cache().stats()["misses"]
        topn_fragmented(fragments, terms, 7, plan_cache=True)
        topn_fragmented(fragments, terms, 8, plan_cache=True)  # new n
        after = get_plan_cache().stats()["misses"]
        assert after >= before  # both shapes compiled at most once each

    def test_rebuilt_layout_mints_new_key(self, relations):
        a = fragment_by_idf(relations, 2)
        relations.add_document("http://site/new", "w0 w1")
        relations.refresh_idf()
        b = fragment_by_idf(relations, 2)
        assert a.plan_token != b.plan_token
