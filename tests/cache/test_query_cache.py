"""The result cache over a single-node engine: hits, bypass, invalidation."""

import pytest

from repro.core.config import ExecutionPolicy
from repro.service import SearchRequest, SearchService
from repro.service.api import MODE_CONTENT, MODE_FRAGMENTED
from repro.telemetry import telemetry_session

pytestmark = pytest.mark.cache


def search(service, query, policy=None, mode=MODE_CONTENT):
    return service.search(SearchRequest(
        query=query, mode=mode,
        policy=policy if policy is not None else ExecutionPolicy(n=5)))


def urls(response):
    return [hit.key for hit in response.hits]


@pytest.fixture
def service(engine):
    return SearchService(engine)


def stats(service):
    return service._results.stats()


class TestHitAfterWarm:
    def test_second_search_is_a_hit(self, service):
        first = search(service, "trophy champion")
        assert stats(service)["misses"] == 1
        second = search(service, "trophy champion")
        assert stats(service)["hits"] == 1
        assert second.cache_hit and second.hits == first.hits

    def test_cached_ranking_is_bit_identical(self, service):
        uncached = search(service, "trophy champion w0",
                          ExecutionPolicy(n=10, cache=False))
        warm = search(service, "trophy champion w0",
                      ExecutionPolicy(n=10))     # populates
        cached = search(service, "trophy champion w0",
                        ExecutionPolicy(n=10))   # serves
        assert cached.cache_hit
        assert cached.hits == uncached.hits == warm.hits
        assert [hit.score for hit in cached.hits] \
            == [hit.score for hit in uncached.hits]

    def test_hit_returns_a_fresh_list(self, engine):
        # engines no longer cache: every direct search is its own list
        first = engine.search("trophy", policy=ExecutionPolicy(n=5))
        first.append(("tampered", 0.0))
        second = engine.search("trophy", policy=ExecutionPolicy(n=5))
        assert ("tampered", 0.0) not in second

    def test_fragmented_search_caches_too(self, service):
        first = search(service, "trophy champion", mode=MODE_FRAGMENTED)
        second = search(service, "trophy champion", mode=MODE_FRAGMENTED)
        assert second.hits == first.hits
        assert second.tuples_touched == first.tuples_touched
        assert stats(service)["hits"] == 1

    def test_distinct_n_are_distinct_entries(self, service):
        search(service, "trophy", ExecutionPolicy(n=5))
        search(service, "trophy", ExecutionPolicy(n=10))
        assert stats(service)["hits"] == 0
        assert stats(service)["misses"] == 2


class TestInvalidation:
    def test_index_invalidates(self, service, engine):
        before = search(service, "trophy champion")
        engine.index("doc:fresh", "trophy trophy trophy champion")
        after = search(service, "trophy champion")
        assert stats(service)["hits"] == 0
        assert after.hits != before.hits
        assert "doc:fresh" in urls(after)

    def test_remove_invalidates(self, service):
        before = search(service, "trophy champion")
        top_url = before.hits[0].key
        service.remove(top_url)
        after = search(service, "trophy champion")
        assert not after.cache_hit
        assert top_url not in urls(after)

    def test_reindex_invalidates(self, service):
        search(service, "melbournepark")
        service.reindex("http://site/p0", "melbournepark melbournepark")
        after = search(service, "melbournepark")
        assert stats(service)["hits"] == 0
        assert urls(after) == ["http://site/p0"]

    def test_stale_entries_age_out_rather_than_match(self, service, engine):
        search(service, "trophy")
        engine.index("doc:fresh", "unrelated words")
        search(service, "trophy")
        # the stale entry is still *stored* (no purge on write path) but
        # can never be matched again; both executions were misses
        assert stats(service)["misses"] == 2
        assert stats(service)["hits"] == 0
        assert stats(service)["entries"] == 2


class TestBypass:
    def test_no_cache_policy_never_touches_the_cache(self, service):
        policy = ExecutionPolicy(n=5, cache=False)
        search(service, "trophy champion", policy)
        search(service, "trophy champion", policy)
        assert stats(service) == {"entries": 0, "capacity": 128, "hits": 0,
                                  "misses": 0, "evictions": 0}

    def test_no_cache_still_returns_the_same_ranking(self, service):
        cached_path = search(service, "trophy w0")
        bypassed = search(service, "trophy w0",
                          ExecutionPolicy(n=5, cache=False))
        assert bypassed.hits == cached_path.hits

    def test_telemetry_records_no_cache_traffic_when_bypassed(self,
                                                              service):
        with telemetry_session() as telemetry:
            search(service, "trophy", ExecutionPolicy(n=5, cache=False))
            counters = telemetry.metrics.snapshot()["counters"]
            assert "cache.miss{cache=result}" not in counters
            assert "cache.hit{cache=result}" not in counters


class TestEvictionAtCapacity:
    def test_lru_eviction_under_small_capacity(self, service):
        capacity = stats(service)["capacity"]
        search(service, "trophy")
        for n in range(1, capacity + 1):   # evicts "trophy" at the end
            search(service, "champion", ExecutionPolicy(n=n))
        assert stats(service)["entries"] == capacity
        assert stats(service)["evictions"] == 1
        # the evicted query misses again, the survivors still hit
        assert search(service, "champion", ExecutionPolicy(n=1)).cache_hit
        assert not search(service, "trophy").cache_hit

