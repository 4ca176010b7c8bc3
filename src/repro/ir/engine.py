"""The IrEngine facade: one object for index + maintain + query.

Used by the integrated search engine (``repro.core``) for the Hypertext
attributes of a webspace, and directly by examples that only need text
search.

Both engines are generation-aware: a generation's postings and its
fragment layout are derived once, on the postings index its first read
publishes (:meth:`~repro.ir.relations.IrRelations.postings_index`),
and ``generation`` is the stamp :class:`~repro.service.SearchService`
keys its result cache on.  The engines themselves never cache answers:
a caller who wants caching puts a service in front.

Since the service layer, ``execute(request)`` is the execution core of
both engines: a :class:`~repro.service.api.SearchRequest` in
(``content`` or ``fragmented`` mode), a
:class:`~repro.service.api.SearchResponse` out.  The public
``search``/``search_urls``/``search_fragmented`` methods are thin
adapters over it, and the removed legacy ``n=``/``prune=`` kwargs
raise a ``TypeError`` naming
:class:`~repro.core.config.ExecutionPolicy`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ExecutionPolicy
from repro.monetdb.atoms import Oid
from repro.ir.fragmentation import FragmentSet
from repro.ir.ranking import Ranking, query_term_oids, rank_tfidf
from repro.ir.relations import IrRelations
from repro.ir.topn import TopNResult, topn_fragmented

__all__ = ["IrEngine", "ClusterIrEngine"]


def _sort_keys(index, sort: tuple[tuple[str, str], ...]) -> list:
    """A request's sort keys as the ``(column over the slots,
    descending)`` pairs :func:`~repro.ir.topn.topn_structured` orders a
    page on: ``score`` is the quantized score (``None``), ``url`` /
    ``key`` the url's rank, ``class`` / ``field`` / ``attribute`` the
    rank of the url segment's name (``""`` for a plain url)."""
    from repro.errors import QueryError

    keys = []
    for name, direction in reversed(sort):  # the last unknown is named
        if name == "score":
            column = None
        elif name in ("url", "key"):
            column = index.url_ranks
        elif name in ("class", "field", "attribute"):
            codes, names = index.segment_codes(
                "class" if name == "class" else "field")
            ranks = np.empty(len(names), dtype=np.int64)
            ranks[[names[value] for value in sorted(names)]] = \
                np.arange(len(names))
            column = ranks[codes]
        else:
            raise QueryError(
                f"unknown sort field {name!r} for content modes; "
                "expected one of ['attribute', 'class', 'field', 'key', "
                "'score', 'url']")
        keys.append((column, direction == "desc"))
    return keys[::-1]


def _facet_counts(index, matched, facet_names):
    """Value counts over the full match set (content modes facet on the
    two url segments the IR level knows: class, attribute) — one
    ``bincount`` of the matched slots' segment codes per facet."""
    from repro.errors import QueryError

    facets = []
    for name in facet_names:
        if name == "class":
            codes, names = index.segment_codes("class")
        elif name in ("field", "attribute"):
            codes, names = index.segment_codes("field")
        else:
            raise QueryError(
                f"unknown facet {name!r} for content modes; "
                "expected 'class' or 'attribute'")
        counts = np.bincount(codes[matched], minlength=len(names))
        facets.append((name, tuple(sorted(
            ((value, int(counts[code])) for value, code in names.items()
             if value and counts[code]),  # plain urls have no segments
            key=lambda item: (-item[1], item[0])))))
    return tuple(facets)


class IrEngine:
    """Single-node full-text engine over the paper's IR relations."""

    def __init__(self, fragment_count: int = 4):
        self.relations = IrRelations()
        self.fragment_count = fragment_count

    @property
    def generation(self) -> int:
        """The index generation the result cache stamps its keys with."""
        return self.relations.generation

    # -- indexing ---------------------------------------------------------

    def index(self, url: str, text: str) -> Oid:
        """Index one document body under a url key."""
        return self.relations.add_document(url, text)

    def remove(self, url: str) -> None:
        """Un-index one document."""
        self.relations.remove_document(url)

    def reindex(self, url: str, text: str) -> Oid:
        """Replace a document body (source data changed)."""
        if self.relations.doc_oid(url) is not None:
            self.relations.remove_document(url)
        return self.index(url, text)

    def fragments(self) -> FragmentSet:
        """The idf-ordered fragment set of the current generation, the
        one its postings index memoizes (a write through any path makes
        the next read publish, and lay out, a new generation)."""
        return self.relations.postings_index().fragments(self.fragment_count)

    # -- querying ---------------------------------------------------------

    def execute(self, request) -> "SearchResponse":
        """Run one :class:`~repro.service.api.SearchRequest`.

        The unified entry point every public query method adapts over
        (and the one :class:`~repro.service.SearchService` calls).
        Mode ``content`` answers with the ranked urls of
        :meth:`search`; mode ``fragmented`` with the fragment-pruned
        top-N.  Conceptual queries need the integrated engine.

        A ``schema_version`` 2 request routes both content modes
        through the structured path instead: the rich query language
        (:mod:`repro.query`) compiled against the relations and scanned
        by :func:`~repro.ir.topn.topn_structured`.
        """
        import time

        from repro.errors import QueryError
        from repro.service import api

        started = time.perf_counter()
        if request.schema_version == api.SCHEMA_VERSION_V2:
            if request.mode not in (api.MODE_CONTENT, api.MODE_FRAGMENTED):
                raise QueryError(
                    f"mode {request.mode!r} needs the integrated "
                    "SearchEngine, not a bare IR engine")
            return self._structured(request, started)
        if request.mode == api.MODE_CONTENT:
            ranking = self._ranked(request.query, request.policy)
            pairs = [(self.relations.doc_url(doc), score)
                     for doc, score in ranking]
            return api.response_from_ranking(
                request, pairs, api.elapsed_ms_since(started),
                result=ranking)
        if request.mode == api.MODE_FRAGMENTED:
            result = self._fragmented(request.query, request.policy)
            pairs = [(self.relations.doc_url(doc), score)
                     for doc, score in result.ranking]
            return api.response_from_ranking(
                request, pairs, api.elapsed_ms_since(started),
                tuples_touched=result.tuples_read, result=result)
        raise QueryError(f"mode {request.mode!r} needs the integrated "
                         "SearchEngine, not a bare IR engine")

    def _ranked(self, query: str, policy: ExecutionPolicy) -> Ranking:
        """The full-relation ranking core of mode ``content``."""
        return rank_tfidf(self.relations, query, policy.n)

    def _structured(self, request, started: float) -> "SearchResponse":
        """The schema-2 execution core: parse, compile, scan, paginate."""
        from repro.ir.topn import topn_structured
        from repro.query import compile_query, parse_rich_query
        from repro.service import api

        parsed = parse_rich_query(request.query)
        compiled = compile_query(self.relations, parsed,
                                 field_boosts=request.boosts,
                                 filters=request.filters)
        # the index compile_query evaluated against (same generation)
        index = self.relations.postings_index()
        total = int(np.count_nonzero(compiled.matched))
        limit = request.limit if request.limit is not None \
            else request.policy.n
        # the page: rows offset to offset + limit under the sort keys,
        # then the canonical order; only its rows become url pairs
        result = topn_structured(self.fragments(), compiled,
                                 request.offset + limit,
                                 _sort_keys(index, request.sort),
                                 request.offset)
        urls, slot_of = index.urls, index.doc_dense
        pairs = [(urls[slot_of[doc]], score)
                 for doc, score in result.ranking]
        return api.response_from_ranking(
            request, pairs, api.elapsed_ms_since(started),
            tuples_touched=result.tuples_read,
            facets=_facet_counts(index, compiled.matched, request.facets),
            total=total, result=result)

    def _fragmented(self, query: str, policy: ExecutionPolicy
                    ) -> TopNResult:
        """The fragment-pruned core of mode ``fragmented``."""
        terms = query_term_oids(self.relations, query)
        return topn_fragmented(self.fragments(), terms, policy.n,
                               prune=policy.prune)

    def search(self, query: str, policy: ExecutionPolicy | None = None, *,
               n: int | None = None) -> Ranking:
        """Rank documents for a free-text query; returns (doc oid, score).

        The result size is ``policy.n``; a single node has no fan-out
        for the rest of ``policy`` to steer.  The removed ``n=`` kwarg
        raises a :class:`TypeError` naming :class:`ExecutionPolicy`.
        """
        return self._ranked(query, ExecutionPolicy.coerce(policy, n=n))

    def search_urls(self, query: str,
                    policy: ExecutionPolicy | None = None, *,
                    n: int | None = None) -> list[tuple[str, float]]:
        """Ranked urls — a thin adapter over :meth:`execute`.

        The result size comes from ``policy.n`` — exactly the clustered
        surface's contract, so single-node and distributed backends
        answer identically.
        """
        from repro.service.api import MODE_CONTENT, SearchRequest

        policy = ExecutionPolicy.coerce(policy, n=n)
        response = self.execute(SearchRequest(query=query,
                                              mode=MODE_CONTENT,
                                              policy=policy))
        return [(hit.key, hit.score) for hit in response.hits]

    def search_fragmented(self, query: str,
                          policy: ExecutionPolicy | None = None, *,
                          n: int | None = None, prune: bool | None = None
                          ) -> TopNResult:
        """Fragment-pruned top-N — a thin adapter over :meth:`execute`.

        ``policy.n`` / ``policy.prune`` size and steer the access path;
        the removed ``n=``/``prune=`` kwargs raise a :class:`TypeError`
        like every sibling surface.
        """
        from repro.service.api import MODE_FRAGMENTED, SearchRequest

        policy = ExecutionPolicy.coerce(policy, n=n, prune=prune)
        response = self.execute(SearchRequest(query=query,
                                              mode=MODE_FRAGMENTED,
                                              policy=policy))
        return response.result


class ClusterIrEngine:
    """The IrEngine surface over a shared-nothing cluster.

    The integrated engine uses this backend when
    ``EngineConfig.cluster_size > 1``: documents distribute per-document
    over the cluster, and every content predicate runs as the paper's
    distributed plan (local pruned+refined top-N per node, merged at the
    central node against pushed global idf weights).
    """

    def __init__(self, cluster_size: int, fragment_count: int = 4,
                 fault_injector=None):
        from repro.ir.distributed import DistributedIndex
        from repro.monetdb.server import Cluster

        self.cluster = Cluster(cluster_size)
        self.index = DistributedIndex(self.cluster,
                                      fragment_count=fragment_count,
                                      fault_injector=fault_injector)
        # the most recent DistributedQueryResult, kept so diagnostics
        # (CLI stats, tests) can cross-check registry counters against
        # the per-node accounting of the last distributed plan
        self.last_result = None
        # every DistributedQueryResult since the engine last cleared it:
        # SearchEngine.query aggregates these into the QueryResult's
        # unified surface (degraded / failed_nodes / per-node tuples)
        self.recent_results: list = []

    @property
    def relations(self) -> IrRelations:
        """The central node's global relations (vocabulary + IDF)."""
        return self.index.central

    @property
    def generation(self) -> tuple:
        """Central + per-node generation stamps (the cluster cache key)."""
        return self.index.generation

    def reindex(self, url: str, text: str) -> None:
        self.index.reindex_document(url, text)

    def remove(self, url: str) -> None:
        self.index.remove_document(url)

    def execute(self, request) -> "SearchResponse":
        """Run one request as the paper's distributed plan.

        Only mode ``content`` exists on the clustered surface — the
        fragment-pruned access path runs *inside* each node's local
        top-N, not as a separate externally addressable mode.
        """
        import time

        from repro.errors import QueryError
        from repro.service import api

        if request.mode != api.MODE_CONTENT:
            raise QueryError(f"mode {request.mode!r} is not served by the "
                             "clustered IR surface (use 'content')")
        if request.schema_version == api.SCHEMA_VERSION_V2:
            raise QueryError(
                "schema_version 2 structured queries are not yet served "
                "by the clustered IR surface; use a single-node engine")
        started = time.perf_counter()
        result = self.index.query(request.query, policy=request.policy)
        self.last_result = result
        self.recent_results.append(result)
        pairs = [(self.index.central.doc_url(doc), score)
                 for doc, score in result.ranking]
        return api.response_from_ranking(
            request, pairs, api.elapsed_ms_since(started),
            degraded=result.degraded,
            failed_nodes=tuple(sorted(result.failed_nodes)),
            tuples_touched=result.total_tuples(), result=result)

    def search_urls(self, query: str,
                    policy: ExecutionPolicy | None = None, *,
                    n: int | None = None) -> list[tuple[str, float]]:
        """Urls ranked by the distributed plan — an adapter over
        :meth:`execute`, sized by ``policy.n`` (see
        :meth:`IrEngine.search_urls`; both surfaces share the
        contract).
        """
        from repro.service.api import MODE_CONTENT, SearchRequest

        policy = ExecutionPolicy.coerce(policy, n=n)
        response = self.execute(SearchRequest(query=query,
                                              mode=MODE_CONTENT,
                                              policy=policy))
        return [(hit.key, hit.score) for hit in response.hits]
