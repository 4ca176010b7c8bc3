"""The bounded, thread-safe LRU underneath the result cache."""

import threading

import pytest

from repro.cache import MISS, LruCache
from repro.telemetry import telemetry_session

pytestmark = pytest.mark.cache


class TestBasics:
    def test_get_put_roundtrip(self):
        cache = LruCache(capacity=4)
        assert cache.get("a") is MISS
        cache.put("a", [1, 2])
        assert cache.get("a") == [1, 2]

    def test_none_is_a_cacheable_value(self):
        cache = LruCache(capacity=4)
        cache.put("a", None)
        assert cache.get("a") is None
        assert cache.get("missing") is MISS

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)

    def test_invalidate_drops_everything(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.get("a") is MISS


class TestEviction:
    def test_least_recently_used_goes_first(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is MISS
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_freshens_lru_order(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")       # "b" is now least recently used
        cache.put("c", 3)    # evicts "b"
        assert cache.get("a") == 1
        assert cache.get("b") is MISS

    def test_stats_shape(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats == {"entries": 1, "capacity": 2, "hits": 1,
                         "misses": 1, "evictions": 0}


class TestTelemetry:
    def test_hit_miss_eviction_counters(self):
        with telemetry_session() as telemetry:
            cache = LruCache(capacity=1, name="unit")
            cache.get("a")           # miss
            cache.put("a", 1)
            cache.get("a")           # hit
            cache.put("b", 2)        # evicts "a"
            counters = telemetry.metrics.snapshot()["counters"]
            assert counters["cache.miss{cache=unit}"] == 1
            assert counters["cache.hit{cache=unit}"] == 1
            assert counters["cache.eviction{cache=unit}"] == 1


class TestThreadSafety:
    def test_concurrent_hammer_stays_bounded_and_consistent(self):
        cache = LruCache(capacity=8)
        errors = []

        def worker(base):
            try:
                for i in range(300):
                    key = (base + i) % 12
                    value = cache.get(key)
                    if value is MISS:
                        cache.put(key, key * 10)
                    else:
                        assert value == key * 10
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 6 * 300
