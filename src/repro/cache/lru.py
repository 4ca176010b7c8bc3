"""A bounded, thread-safe LRU map with telemetry-visible traffic.

The store sits between the query surfaces and the physical relations
(the WebContent XML Store and FEDORA both interpose exactly such a
layer), so the cache itself is deliberately dumb: keys in, values out,
least-recently-used entries dropped at capacity.  All invalidation
policy lives with the caller, the search service, which stamps the
index generation into its keys — a stale entry is simply never looked
up again and ages out of the LRU order.

Every lookup and eviction is recorded on the active telemetry registry
(``cache.hit`` / ``cache.miss`` / ``cache.eviction`` counters, labelled
with the cache's name), so ``stats --json`` and the benchmarks can read
hit rates without the cache keeping a second set of books.  Local
``hits``/``misses``/``evictions`` attributes keep counting even when
telemetry is off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.telemetry.runtime import get_telemetry

__all__ = ["LruCache", "MISS"]

# Returned by LruCache.get on a miss; a sentinel, because None is a
# perfectly cacheable value.
MISS: Any = object()


class LruCache:
    """Bounded mapping with least-recently-used eviction.

    All operations take one lock, so the cache is safe to share between
    concurrent query callers.
    """

    def __init__(self, capacity: int = 128, name: str = "query"):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.name = name
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- sizing -----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    # -- access -----------------------------------------------------------

    def get(self, key: Hashable) -> Any:
        """The cached value, freshened in LRU order, or :data:`MISS`."""
        metrics = get_telemetry().metrics
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                metrics.counter("cache.hit", cache=self.name).add(1)
                return self._entries[key]
            self.misses += 1
        metrics.counter("cache.miss", cache=self.name).add(1)
        return MISS

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting LRU ones past capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:
        # caller holds the lock
        evicted = 0
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            evicted += 1
        if evicted:
            self.evictions += evicted
            get_telemetry().metrics.counter(
                "cache.eviction", cache=self.name).add(evicted)

    def invalidate(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        return dropped

    # -- diagnostics ------------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LruCache(name={self.name!r}, "
                f"{len(self._entries)}/{self._capacity})")
