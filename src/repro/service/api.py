"""The unified Request/Response contract of every query surface.

After four PRs the engine had grown three divergent synchronous entry
points (``SearchEngine.query_text``/``query``, ``IrEngine.search``/
``search_urls``/``search_fragmented``, ``DistributedIndex.query``).
FEDORA's lesson — a repository scales once every access path is
funneled through one service interface with an explicit wire contract —
is applied here: a frozen :class:`SearchRequest` goes in, a frozen
:class:`SearchResponse` comes out, and *every* other query method is a
thin adapter over an ``execute(request)`` implementation.

The wire forms (:meth:`SearchRequest.to_dict` /
:meth:`SearchResponse.to_dict`) are versioned from day one: every
payload carries ``schema_version`` (:data:`SCHEMA_VERSION`), the same
stamp :meth:`~repro.core.results.QueryResult.to_dict` and
:meth:`~repro.ir.distributed.DistributedQueryResult.to_dict` carry —
see DESIGN.md §11 for the documented schema.

This module depends only on :mod:`repro.core.config`, so the engines
(:mod:`repro.ir.engine`, :mod:`repro.core.engine`) can import it
without cycles; the heavyweight service machinery lives in
:mod:`repro.service.service` and is loaded lazily by the package
``__init__``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

from repro.core.config import ExecutionPolicy
from repro.errors import QueryError

__all__ = [
    "SCHEMA_VERSION", "SCHEMA_VERSION_V2", "SUPPORTED_SCHEMA_VERSIONS",
    "MODE_CONCEPTUAL", "MODE_CONTENT", "MODE_FRAGMENTED",
    "MODES", "MAX_BULK_ITEMS", "SearchRequest", "SearchResponse", "Hit",
    "ErrorResponse", "policy_to_dict",
    "policy_from_dict", "response_from_query_result",
    "response_from_ranking", "elapsed_ms_since",
]

#: Version stamp of every *v1* JSON payload the engine emits (requests,
#: responses, result dicts, ``stats --json`` reports).  Schema 2 is a
#: per-request opt-in, not a global bump: a payload carrying
#: ``schema_version: 2`` unlocks the rich-query fields below, while
#: every v1 payload — including ones omitting ``schema_version``
#: entirely — keeps producing byte-identical responses.
SCHEMA_VERSION = 1
#: The rich-query schema: fielded/boolean/phrase/boosted queries plus
#: ``filters``/``facets``/``sort``/``limit``/``offset``/``boosts``.
SCHEMA_VERSION_V2 = 2
SUPPORTED_SCHEMA_VERSIONS = (SCHEMA_VERSION, SCHEMA_VERSION_V2)

#: The request fields that only exist on schema 2.
_V2_FIELDS = ("filters", "facets", "sort", "limit", "offset", "boosts")

#: Conceptual textual query (the paper's integrated three-level path).
MODE_CONCEPTUAL = "conceptual"
#: Free-text ranking over the IR relations (urls + scores).
MODE_CONTENT = "content"
#: Free-text top-N through the fragment-pruned access path.
MODE_FRAGMENTED = "fragmented"

MODES = (MODE_CONCEPTUAL, MODE_CONTENT, MODE_FRAGMENTED)

#: Hard cap on ``POST /v1/search:bulk`` batch size.  A batch holds one
#: execution slot and the read lock for its whole evaluation, so an
#: unbounded batch would starve interactive requests; the cap keeps
#: the longest lock hold bounded while still amortizing per-request
#: overhead a few-hundredfold.
MAX_BULK_ITEMS = 256


def policy_to_dict(policy: ExecutionPolicy) -> dict[str, object]:
    """Every :class:`ExecutionPolicy` knob as a JSON-friendly dict."""
    return {spec.name: getattr(policy, spec.name)
            for spec in fields(ExecutionPolicy)}


def policy_from_dict(payload: dict[str, object]) -> ExecutionPolicy:
    """Rebuild a policy from its wire dict; unknown knobs are errors."""
    known = {spec.name for spec in fields(ExecutionPolicy)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise QueryError(f"unknown execution-policy knobs {unknown}; "
                         f"known knobs: {sorted(known)}")
    try:
        return ExecutionPolicy(**payload)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"invalid execution policy: {exc}") from exc


def elapsed_ms_since(started: float) -> float:
    """Milliseconds since a ``time.perf_counter()`` reading."""
    return (time.perf_counter() - started) * 1000.0


def _parse_pairs(payload: object, name: str, value_type,
                 type_label: str) -> tuple:
    """A JSON object of ``{key: value}`` as a sorted tuple of pairs."""
    if not isinstance(payload, dict):
        raise QueryError(f"request {name} must be a JSON object")
    pairs = []
    for key, value in payload.items():
        if not isinstance(key, str) or not key:
            raise QueryError(f"request {name} keys must be strings")
        if not isinstance(value, value_type) or isinstance(value, bool):
            raise QueryError(f"request {name} values must be "
                             f"{type_label}, got {value!r}")
        pairs.append((key, value))
    return tuple(sorted(pairs))


def _parse_sort(payload: object) -> tuple[tuple[str, str], ...]:
    """``["field:desc", ...]`` as ``((field, direction), ...)``."""
    if not isinstance(payload, list):
        raise QueryError("request sort must be a JSON array of "
                         "'field' / 'field:asc' / 'field:desc' strings")
    keys = []
    for spec in payload:
        if not isinstance(spec, str) or not spec:
            raise QueryError(f"malformed sort key {spec!r}")
        name, _, direction = spec.partition(":")
        direction = direction or "desc"
        if not name or direction not in ("asc", "desc"):
            raise QueryError(f"malformed sort key {spec!r}; expected "
                             "'field', 'field:asc' or 'field:desc'")
        keys.append((name, direction))
    return tuple(keys)


@dataclass(frozen=True)
class SearchRequest:
    """One query, fully specified: text, access mode, execution policy.

    The request is the *only* thing a caller hands the service — the
    legacy per-method kwargs are gone.  ``trace_id`` is an opaque
    client-chosen correlation token, echoed on the response and stamped
    on the ``service.request`` span.

    ``schema_version`` selects the wire dialect.  Version 1 (the
    default) is the frozen flat-term-list contract.  Version 2 turns
    ``query`` into the rich language of :mod:`repro.query`
    (``field:term``, AND/OR/NOT, quoted phrases, ``^boost`` suffixes,
    ``year:1990-2001`` ranges) and unlocks the structured extras:

    * ``filters``  — match-only restrictions, ``{"field": "lo-hi"}``
      ranges or ``{"field": "value"}`` equalities,
    * ``facets``   — attribute paths to count values over the full
      match set,
    * ``sort``     — ``(field, "asc"|"desc")`` keys replacing the
      default score order,
    * ``limit`` / ``offset`` — pagination over the sorted matches
      (``limit`` defaults to the policy's ``n``),
    * ``boosts``   — per-field score multipliers
      (``{"title": 4, "abstract": 3}``).

    The v2 extras are rejected on v1 requests: old clients cannot set
    them by accident, and the v1 wire shape stays byte-identical.
    """

    query: str
    mode: str = MODE_CONCEPTUAL
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    trace_id: str | None = None
    schema_version: int = SCHEMA_VERSION
    filters: tuple[tuple[str, str], ...] = ()
    facets: tuple[str, ...] = ()
    sort: tuple[tuple[str, str], ...] = ()
    limit: int | None = None
    offset: int = 0
    boosts: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.query, str) or not self.query.strip():
            raise QueryError("request query must be a non-empty string")
        if self.mode not in MODES:
            raise QueryError(f"unknown request mode {self.mode!r}; "
                             f"expected one of {MODES}")
        if not isinstance(self.policy, ExecutionPolicy):
            raise QueryError("request policy must be an ExecutionPolicy, "
                             f"got {type(self.policy).__name__}")
        if self.schema_version not in SUPPORTED_SCHEMA_VERSIONS:
            raise QueryError(
                f"unsupported schema_version {self.schema_version!r}; "
                f"this server speaks {list(SUPPORTED_SCHEMA_VERSIONS)}")
        if self.schema_version == SCHEMA_VERSION:
            used = [name for name in _V2_FIELDS
                    if getattr(self, name) not in ((), None, 0)]
            if used:
                raise QueryError(
                    f"request fields {used} need schema_version "
                    f"{SCHEMA_VERSION_V2}")
            return
        if self.limit is not None and self.limit < 1:
            raise QueryError(f"request limit must be >= 1, "
                             f"got {self.limit}")
        if self.offset < 0:
            raise QueryError(f"request offset must be >= 0, "
                             f"got {self.offset}")

    def shape_token(self) -> tuple:
        """The structured request shape as one hashable token.

        Cache layers (result cache, single-flight coalescing) append
        this to their keys: identical term lists under different
        fields/boosts/filters/sort/pagination must never share an
        entry.  Constant for every v1 request, so v1 keys keep
        coalescing exactly as before.
        """
        return (self.schema_version, self.filters, self.facets,
                self.sort, self.limit, self.offset, self.boosts)

    def to_dict(self) -> dict[str, object]:
        """The versioned wire form (``POST /v1/search`` body)."""
        payload: dict[str, object] = {
            "schema_version": self.schema_version,
            "query": self.query,
            "mode": self.mode,
            "policy": policy_to_dict(self.policy),
            "trace_id": self.trace_id,
        }
        if self.schema_version == SCHEMA_VERSION_V2:
            payload["filters"] = {name: spec for name, spec in self.filters}
            payload["facets"] = list(self.facets)
            payload["sort"] = [f"{name}:{direction}"
                               for name, direction in self.sort]
            payload["limit"] = self.limit
            payload["offset"] = self.offset
            payload["boosts"] = {name: value for name, value in self.boosts}
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "SearchRequest":
        """Parse a wire payload; every malformation is a QueryError.

        A payload *omitting* ``schema_version`` is a v1 request: old
        clients predate versioned schemas, so missing must mean 1 —
        defaulting to the newest version would silently reparse their
        flat term lists under v2 grammar.
        """
        if not isinstance(payload, dict):
            raise QueryError("request payload must be a JSON object")
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise QueryError(
                f"unsupported schema_version {version!r}; this server "
                f"speaks {list(SUPPORTED_SCHEMA_VERSIONS)}")
        known = {"schema_version", "query", "mode", "policy", "trace_id"}
        if version == SCHEMA_VERSION_V2:
            known |= set(_V2_FIELDS)
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(f"unknown request fields {unknown}")
        if "query" not in payload:
            raise QueryError("request payload needs a 'query' field")
        policy_payload = payload.get("policy") or {}
        if not isinstance(policy_payload, dict):
            raise QueryError("request policy must be a JSON object")
        trace_id = payload.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise QueryError("request trace_id must be a string")
        extras: dict[str, object] = {}
        if version == SCHEMA_VERSION_V2:
            extras["filters"] = _parse_pairs(
                payload.get("filters") or {}, "filters", (str, int, float),
                "strings or numbers")
            extras["filters"] = tuple(
                (name, str(value)) for name, value in extras["filters"])
            facets = payload.get("facets") or []
            if not isinstance(facets, list) or any(
                    not isinstance(name, str) or not name
                    for name in facets):
                raise QueryError("request facets must be an array of "
                                 "attribute-path strings")
            extras["facets"] = tuple(facets)
            extras["sort"] = _parse_sort(payload.get("sort") or [])
            limit = payload.get("limit")
            if limit is not None and (not isinstance(limit, int)
                                      or isinstance(limit, bool)):
                raise QueryError("request limit must be an integer")
            extras["limit"] = limit
            offset = payload.get("offset", 0)
            if not isinstance(offset, int) or isinstance(offset, bool):
                raise QueryError("request offset must be an integer")
            extras["offset"] = offset
            boosts = _parse_pairs(payload.get("boosts") or {}, "boosts",
                                  (int, float), "numbers")
            extras["boosts"] = tuple(
                (name, float(value)) for name, value in boosts)
        return cls(query=payload["query"],
                   mode=payload.get("mode", MODE_CONCEPTUAL),
                   policy=policy_from_dict(policy_payload),
                   trace_id=trace_id,
                   schema_version=version,
                   **extras)


@dataclass(frozen=True)
class Hit:
    """One ranked answer on the wire.

    ``key`` is the stable identity of the hit — a document url for
    content modes, the comma-joined ``alias:object-key`` bindings for
    conceptual rows; ``values`` carries the projected attribute values
    of a conceptual row as ``(path, value)`` pairs.
    """

    key: str
    score: float = 0.0
    values: tuple[tuple[str, object], ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {"key": self.key, "score": self.score,
                "values": {path: value for path, value in self.values}}

    @classmethod
    def from_dict(cls, payload: object) -> "Hit":
        """Parse one wire hit; every malformation is a QueryError.

        The exact inverse of :meth:`to_dict`: ``values`` comes back as
        the sorted ``(path, value)`` tuple the producing side built it
        from, so ``from_dict(to_dict(hit)) == hit``.
        """
        if not isinstance(payload, dict):
            raise QueryError("hit payload must be a JSON object")
        unknown = sorted(set(payload) - {"key", "score", "values"})
        if unknown:
            raise QueryError(f"unknown hit fields {unknown}")
        key = payload.get("key")
        if not isinstance(key, str):
            raise QueryError("hit key must be a string")
        score = payload.get("score", 0.0)
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise QueryError("hit score must be a number")
        values = payload.get("values") or {}
        if not isinstance(values, dict) or any(
                not isinstance(path, str) for path in values):
            raise QueryError("hit values must be a JSON object with "
                             "string attribute paths")
        return cls(key=key, score=float(score),
                   values=tuple(sorted(values.items())))


@dataclass(frozen=True)
class SearchResponse:
    """What came back: ranked hits plus execution accounting.

    ``result`` is the rich in-process result object (a
    :class:`~repro.core.results.QueryResult`, a
    :class:`~repro.ir.topn.TopNResult` or a raw ranking) for embedders
    that need more than the wire shape; it never crosses the wire.
    ``queue_ms``, ``coalesced`` and ``cache_hit`` are stamped by the
    service layer — zero / False on direct engine execution.
    """

    request: SearchRequest
    hits: tuple[Hit, ...] = ()
    elapsed_ms: float = 0.0
    queue_ms: float = 0.0
    degraded: bool = False
    cache_hit: bool = False
    coalesced: bool = False
    failed_nodes: tuple[str, ...] = ()
    tuples_touched: int = 0
    result: object = None
    #: schema 2 only: per-facet value counts, ``((facet, ((value,
    #: count), ...)), ...)`` sorted by count desc then value — counted
    #: over the *full* match set, not the returned page.
    facets: tuple[tuple[str, tuple[tuple[str, int], ...]], ...] = ()
    #: schema 2 only: total matching rows before limit/offset.
    total: int | None = None

    def annotate(self, **overrides) -> "SearchResponse":
        """A copy with service-layer fields stamped on."""
        return replace(self, **overrides)

    def to_dict(self) -> dict[str, object]:
        """The versioned wire form (``POST /v1/search`` reply).

        The reply echoes the request's dialect: a v1 request gets the
        frozen v1 key set byte-for-byte; only a v2 request sees the
        ``facets``/``total`` keys.
        """
        payload: dict[str, object] = {
            "schema_version": self.request.schema_version,
            "query": self.request.query,
            "mode": self.request.mode,
            "trace_id": self.request.trace_id,
            "rows": len(self.hits),
            "hits": [hit.to_dict() for hit in self.hits],
            "degraded": self.degraded,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "failed_nodes": list(self.failed_nodes),
            "tuples_touched": self.tuples_touched,
            "timings": {"total_ms": self.elapsed_ms,
                        "queue_ms": self.queue_ms},
        }
        if self.request.schema_version == SCHEMA_VERSION_V2:
            payload["facets"] = {
                name: {value: count for value, count in counts}
                for name, counts in self.facets}
            payload["total"] = self.total
        return payload

    @classmethod
    def from_dict(cls, payload: object) -> "SearchResponse":
        """Parse a wire reply; every malformation is a QueryError.

        The consuming half the contract lacked: offline readers and
        bulk clients parse replies, they do not only produce them.
        The reconstructed ``request`` carries exactly what the reply
        echoes (query, mode, trace_id, schema_version) with a default
        policy, and ``result`` is ``None`` — neither crosses the wire
        by design.  Within that wire surface the contract is
        symmetric: ``to_dict(from_dict(d)) == d`` for every valid
        payload, v1 and v2 alike.
        """
        if not isinstance(payload, dict):
            raise QueryError("response payload must be a JSON object")
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise QueryError(
                f"unsupported schema_version {version!r}; this client "
                f"speaks {list(SUPPORTED_SCHEMA_VERSIONS)}")
        known = {"schema_version", "query", "mode", "trace_id", "rows",
                 "hits", "degraded", "cache_hit", "coalesced",
                 "failed_nodes", "tuples_touched", "timings"}
        if version == SCHEMA_VERSION_V2:
            known |= {"facets", "total"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(f"unknown response fields {unknown}")
        if "query" not in payload or "hits" not in payload:
            raise QueryError("response payload needs 'query' and 'hits'")
        hits_payload = payload["hits"]
        if not isinstance(hits_payload, list):
            raise QueryError("response hits must be a JSON array")
        hits = tuple(Hit.from_dict(hit) for hit in hits_payload)
        rows = payload.get("rows", len(hits))
        if rows != len(hits):
            raise QueryError(f"response says {rows} rows but carries "
                             f"{len(hits)} hits")
        timings = payload.get("timings") or {}
        if not isinstance(timings, dict):
            raise QueryError("response timings must be a JSON object")
        failed = payload.get("failed_nodes") or []
        if not isinstance(failed, list) or any(
                not isinstance(node, str) for node in failed):
            raise QueryError("response failed_nodes must be an array "
                             "of node names")
        request = SearchRequest(
            query=payload["query"],
            mode=payload.get("mode", MODE_CONCEPTUAL),
            trace_id=payload.get("trace_id"),
            schema_version=version)
        facets: tuple = ()
        total = None
        if version == SCHEMA_VERSION_V2:
            facets_payload = payload.get("facets") or {}
            if not isinstance(facets_payload, dict) or any(
                    not isinstance(counts, dict)
                    for counts in facets_payload.values()):
                raise QueryError("response facets must be an object of "
                                 "per-facet value counts")
            facets = tuple(
                (name, tuple(sorted(
                    counts.items(), key=lambda item: (-item[1], item[0]))))
                for name, counts in facets_payload.items())
            total = payload.get("total")
            if total is not None and (not isinstance(total, int)
                                      or isinstance(total, bool)):
                raise QueryError("response total must be an integer")
        try:
            return cls(
                request=request, hits=hits,
                elapsed_ms=float(timings.get("total_ms", 0.0)),
                queue_ms=float(timings.get("queue_ms", 0.0)),
                degraded=bool(payload.get("degraded", False)),
                cache_hit=bool(payload.get("cache_hit", False)),
                coalesced=bool(payload.get("coalesced", False)),
                failed_nodes=tuple(failed),
                tuples_touched=int(payload.get("tuples_touched", 0)),
                facets=facets, total=total)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"malformed response payload: {exc}") from exc


@dataclass(frozen=True)
class ErrorResponse:
    """The one error envelope of every non-200 answer.

    Before this class each HTTP error body was assembled ad hoc (a
    bare ``"error": message`` string with ``retry_after``/``reason``
    keys sometimes floating at top level).  Now every failure — full
    responses and per-item ``search:bulk`` errors alike — serializes
    as::

        {"error": {"kind": ..., "message": ..., "retry_after"?: ...},
         "schema_version": 1}

    ``kind`` is a stable, machine-matchable discriminator
    (``bad_request``, ``not_found``, ``rate``, ``queue``, ``timeout``,
    ``draining``, ``internal``); ``message`` is for humans and carries
    no contract.  ``retry_after`` appears only on shed requests and
    keeps the precise sub-second hint — the HTTP ``Retry-After``
    *header* (integral, clamped ``>= 1``) is produced by the daemon
    and is byte-identical to the pre-envelope behavior.
    """

    kind: str
    message: str
    retry_after: float | None = None

    def to_dict(self) -> dict[str, object]:
        error: dict[str, object] = {"kind": self.kind,
                                    "message": self.message}
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"schema_version": SCHEMA_VERSION, "error": error}

    @classmethod
    def from_dict(cls, payload: object) -> "ErrorResponse":
        """Parse one wire error envelope (the bulk client's half)."""
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("error"), dict):
            raise QueryError("error payload must be a JSON object with "
                             "an 'error' object")
        error = payload["error"]
        kind = error.get("kind")
        message = error.get("message")
        if not isinstance(kind, str) or not isinstance(message, str):
            raise QueryError("error envelope needs string 'kind' and "
                             "'message'")
        retry_after = error.get("retry_after")
        if retry_after is not None and (
                not isinstance(retry_after, (int, float))
                or isinstance(retry_after, bool)):
            raise QueryError("error retry_after must be a number")
        return cls(kind=kind, message=message,
                   retry_after=None if retry_after is None
                   else float(retry_after))

    @classmethod
    def from_exception(cls, error: Exception) -> "ErrorResponse":
        """Map a library exception onto its envelope.

        The one place exception types translate to error kinds, used
        by the HTTP daemon and the per-item bulk path so both agree.
        """
        from repro.errors import (QueryError as _QueryError, ReproError,
                                  ServiceClosedError,
                                  ServiceOverloadedError)

        if isinstance(error, ServiceOverloadedError):
            return cls(kind=error.reason, message=str(error),
                       retry_after=error.retry_after)
        if isinstance(error, ServiceClosedError):
            return cls(kind="draining", message=str(error))
        if isinstance(error, _QueryError):
            return cls(kind="bad_request", message=str(error))
        if isinstance(error, ReproError):
            return cls(kind="internal", message=f"engine failure: {error}")
        return cls(kind="internal", message=str(error))


def response_from_query_result(request: SearchRequest, result,
                               elapsed_ms: float) -> SearchResponse:
    """Wrap a conceptual :class:`QueryResult` into the wire shape."""
    hits = tuple(
        Hit(key=",".join(f"{alias}:{key}"
                         for alias, key in sorted(row.keys.items())),
            score=row.score,
            values=tuple(sorted(row.values.items())))
        for row in result.rows)
    facets = tuple(
        (name, tuple(sorted(counts.items(),
                            key=lambda item: (-item[1], item[0]))))
        for name, counts in sorted(getattr(result, "facets", {}).items()))
    return SearchResponse(
        request=request, hits=hits, elapsed_ms=elapsed_ms,
        degraded=result.degraded,
        failed_nodes=tuple(sorted(result.failed_nodes)),
        tuples_touched=result.tuples_touched, result=result,
        facets=facets, total=getattr(result, "total_rows", None))


def response_from_ranking(request: SearchRequest, pairs, elapsed_ms: float,
                          *, degraded: bool = False,
                          failed_nodes: tuple[str, ...] = (),
                          tuples_touched: int = 0,
                          result: object = None,
                          facets: tuple = (),
                          total: int | None = None) -> SearchResponse:
    """Wrap a ``[(url, score), ...]`` ranking into the wire shape."""
    hits = tuple(Hit(key=url, score=score) for url, score in pairs)
    return SearchResponse(
        request=request, hits=hits, elapsed_ms=elapsed_ms,
        degraded=degraded,
        failed_nodes=tuple(failed_nodes), tuples_touched=tuples_touched,
        result=result, facets=facets, total=total)
