"""Caching layer between the query surfaces and the physical store.

Two cooperating pieces:

* **generation stamps** — :class:`~repro.ir.relations.IrRelations`
  and :class:`~repro.xmlstore.store.XmlStore` bump a ``generation``
  counter on every mutation; the packed postings and the idf-ordered
  fragments hang off the postings index a generation's first read
  publishes, and the conceptual index's lookups are memoized against
  it, so a derived structure is rebuilt only when the data
  under it actually changed,
* **the result cache** — one bounded, thread-safe LRU
  (:class:`LruCache`) owned by :class:`~repro.service.SearchService`,
  keyed on the request and the engine's generation stamp.  Engines
  below the service do not cache answers.

Invalidation rides the write path: mutations bump generations, so old
entries can never be matched again and simply age out of the LRU.
"""

from repro.cache.lru import LruCache, MISS

__all__ = ["LruCache", "MISS"]
