"""The thread-safe search service: the only sanctioned query path.

:class:`SearchService` wraps an engine (the integrated
:class:`~repro.core.engine.SearchEngine`, or any object exposing
``execute(request)`` such as a bare
:class:`~repro.ir.engine.IrEngine`) and layers on everything a live
digital library needs that a naked engine lacks:

* **Admission control** — a token bucket plus a bounded wait queue
  (:mod:`repro.service.admission`); overload sheds requests with a
  :class:`~repro.errors.ServiceOverloadedError` carrying
  ``retry_after`` instead of queueing unboundedly.
* **Single-flight coalescing** — identical in-flight requests execute
  once (:mod:`repro.service.singleflight`).
* **The result cache** — the one place answers are cached: a bounded
  LRU keyed on the request and the engine's ``generation``, so
  repeats *over time* are served without touching the engine and any
  write makes the next read a miss.  Every reply, cached or coalesced,
  echoes its own request.
* **Reader–writer locking** — queries run concurrently with each
  other but serialize against every write path
  (``reindex``/``populate``/``recrawl``/``maintain``/snapshot
  restore), so no request ever reads a torn index.
* **Graceful drain** — :meth:`drain` finishes admitted requests and
  rejects new ones with :class:`~repro.errors.ServiceClosedError`.

Fully instrumented: ``service.request``/``service.write`` spans and
``service.admitted/shed/coalesced/rejected`` counters, an
``service.inflight`` gauge and queue/latency histograms.
"""

from __future__ import annotations

import threading
import time

from repro.cache import MISS, LruCache
from repro.errors import QueryError, ReproError, ServiceClosedError, \
    ServiceOverloadedError
from repro.service.admission import AdmissionController, ServicePolicy
from repro.service.api import SearchRequest, SearchResponse, elapsed_ms_since
from repro.service.rwlock import RwLock
from repro.service.singleflight import SingleFlight
from repro.telemetry.runtime import get_telemetry

__all__ = ["SearchService", "ServicePolicy"]

#: entries of the result cache
RESULT_CACHE_SIZE = 128


def policy_signature(policy) -> tuple:
    """The policy fields that can affect a query's result.

    ``cache``, ``cache_size`` and ``plan_cache`` are excluded (the first
    steers the result cache itself, the other two have no effect);
    everything else participates: ``n`` and ``prune`` shape the ranking
    directly, and the execution knobs (workers, deadline, retries,
    backoff, failure mode, backend, hedging) decide *which* ranking
    comes back when nodes misbehave — a degraded-tolerant query must
    not be served a result computed under different fault semantics,
    and a thread-backend result must not stand in for a process-backend
    execution's accounting (the rankings are bit-identical, the
    per-node bookkeeping is not).
    """
    return (policy.n, policy.prune, policy.max_workers,
            policy.node_deadline_ms, policy.retries, policy.backoff_ms,
            policy.on_failure, policy.backend, policy.hedge_after_ms)


class SearchService:
    """An embeddable, concurrent front door over one search engine.

    With a :class:`~repro.wal.WriteAheadLog` attached (``wal=``), every
    writer op is appended and fsynced *before* it is applied and
    acknowledged only after both — so a crash at any point after the
    acknowledgement loses nothing: recovery loads the newest snapshot
    and replays the log tail past its ``wal_seq``
    (:func:`repro.persistence.load_engine` with ``wal=``).
    """

    def __init__(self, engine, policy: ServicePolicy | None = None,
                 wal=None):
        self.engine = engine
        self.policy = policy or ServicePolicy()
        self._wal = wal
        # (generation, wal_seq) of checkpoints this service took, newest
        # last; log truncation follows the *oldest retained* checkpoint
        # so an on_corrupt="fallback" load still finds its tail
        self._checkpoints: list[tuple[int, int]] = []
        self._rw = RwLock()
        self._admission = AdmissionController(self.policy)
        self._flights = SingleFlight()
        self._results = LruCache(RESULT_CACHE_SIZE, name="result")
        self._lifecycle = threading.Condition()
        self._state = "running"
        self._inflight = 0
        self._stats_lock = threading.Lock()
        self._counters = {"admitted": 0, "shed": 0, "coalesced": 0,
                          "rejected": 0, "writes": 0}

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def search(self, request: SearchRequest) -> SearchResponse:
        """Admit, coalesce and execute one request under the read lock."""
        if not isinstance(request, SearchRequest):
            raise QueryError("SearchService.search takes a SearchRequest "
                             f"(got {type(request).__name__}); build one "
                             "with repro.service.SearchRequest")
        telemetry = get_telemetry()
        with telemetry.tracer.span("service.request", mode=request.mode,
                                   trace_id=request.trace_id) as span:
            self._enter(telemetry)
            try:
                try:
                    queue_ms = self._admission.admit()
                except ServiceOverloadedError as error:
                    self._count("shed")
                    telemetry.metrics.counter("service.shed",
                                              reason=error.reason).add(1)
                    span.set_attributes(shed=True, reason=error.reason)
                    raise
                self._count("admitted")
                telemetry.metrics.counter("service.admitted").add(1)
                telemetry.metrics.histogram("service.queue_ms") \
                    .observe(queue_ms)
                try:
                    response, coalesced = self._run(request)
                finally:
                    self._admission.release()
                if coalesced:
                    self._count("coalesced")
                    telemetry.metrics.counter("service.coalesced").add(1)
                response = response.annotate(request=request,
                                             queue_ms=queue_ms,
                                             coalesced=coalesced)
                span.set_attributes(rows=len(response.hits),
                                    cache_hit=response.cache_hit,
                                    coalesced=coalesced,
                                    degraded=response.degraded)
                telemetry.metrics.histogram("service.request_ms") \
                    .observe(response.elapsed_ms)
                return response
            finally:
                self._leave(telemetry)

    def execute_bulk(self, requests) -> list:
        """Evaluate a whole batch under one admission and one lock hold.

        The amortized path for analytics workloads: the batch is
        admitted *once* (charging the token bucket per item, so rate
        limits stay limits on query load), occupies one execution
        slot, and takes the read lock once — hundreds of requests per
        call without hundreds of admission/lock round-trips.  Items
        evaluate sequentially in order; each result slot is either the
        item's :class:`SearchResponse` or — per-item error isolation —
        an :class:`~repro.service.api.ErrorResponse`, so one malformed
        sub-request never fails its batch.  Only batch-level failures
        raise: an empty or oversized batch
        (:data:`~repro.service.api.MAX_BULK_ITEMS`), shedding, or a
        draining service.

        Bulk items bypass single-flight coalescing: the batch already
        holds its slot, and its items execute back-to-back under one
        lock hold — there is no concurrent duplicate to coalesce with
        that could answer sooner.  They do share the result cache with
        :meth:`search`.
        """
        from repro.service.api import MAX_BULK_ITEMS, ErrorResponse

        requests = list(requests)
        if not requests:
            raise QueryError("execute_bulk needs at least one request")
        if len(requests) > MAX_BULK_ITEMS:
            raise QueryError(
                f"bulk batch of {len(requests)} requests exceeds the "
                f"{MAX_BULK_ITEMS}-item cap; split the batch")
        telemetry = get_telemetry()
        with telemetry.tracer.span("service.bulk",
                                   items=len(requests)) as span:
            self._enter(telemetry)
            try:
                try:
                    queue_ms = self._admission.admit(weight=len(requests))
                except ServiceOverloadedError as error:
                    self._count("shed")
                    telemetry.metrics.counter("service.shed",
                                              reason=error.reason).add(1)
                    span.set_attributes(shed=True, reason=error.reason)
                    raise
                self._count("admitted")
                telemetry.metrics.counter("service.admitted").add(1)
                telemetry.metrics.histogram("service.queue_ms") \
                    .observe(queue_ms)
                results: list = []
                errors = 0
                try:
                    with self._rw.read_locked():
                        for request in requests:
                            try:
                                if not isinstance(request, SearchRequest):
                                    raise QueryError(
                                        "bulk items must be SearchRequests"
                                        f" (got "
                                        f"{type(request).__name__})")
                                response = self._answer(request)
                                results.append(
                                    response.annotate(queue_ms=queue_ms))
                            except ReproError as error:
                                errors += 1
                                results.append(
                                    ErrorResponse.from_exception(error))
                finally:
                    self._admission.release()
                telemetry.metrics.counter("service.bulk_items") \
                    .add(len(requests))
                if errors:
                    telemetry.metrics.counter("service.bulk_errors") \
                        .add(errors)
                span.set_attributes(errors=errors)
                return results
            finally:
                self._leave(telemetry)

    def submit(self, query: str, mode: str = "conceptual",
               policy=None, trace_id: str | None = None) -> SearchResponse:
        """Convenience wrapper: build the request, run :meth:`search`."""
        from repro.core.config import ExecutionPolicy

        return self.search(SearchRequest(
            query=query, mode=mode,
            policy=policy if policy is not None else ExecutionPolicy(),
            trace_id=trace_id))

    def _run(self, request: SearchRequest
             ) -> tuple[SearchResponse, bool]:
        if not self.policy.coalesce:
            return self._execute(request), False
        return self._flights.run(self._key(request),
                                 lambda: self._execute(request))

    def _execute(self, request: SearchRequest) -> SearchResponse:
        with self._rw.read_locked():
            return self._answer(request)

    def _key(self, request: SearchRequest) -> tuple:
        """What makes two requests one answer: the single-flight and
        result-cache key.

        The shape token folds in schema_version and every v2 extra
        (filters/facets/sort/pagination/boosts), so two requests only
        share a key when their full wire contract is identical; the
        engine's ``generation`` (``None`` when it has none) makes every
        write start a new key space.
        """
        return (request.mode, request.query.strip(),
                policy_signature(request.policy), request.shape_token(),
                getattr(self.engine, "generation", None))

    def _answer(self, request: SearchRequest) -> SearchResponse:
        """Serve one request from the result cache or the engine.

        The caller holds the read lock, so the generation in the key
        and the state the engine executes against are the same.  A hit
        is the stored response re-stamped with this request, its own
        ``elapsed_ms`` and ``cache_hit``.  Nothing is cached under
        ``policy.cache=False``, for an engine without a ``generation``,
        or when the response is ``degraded`` (partial by definition: a
        healed cluster must not keep serving it).
        """
        if not request.policy.cache:
            return self.engine.execute(request)
        started = time.perf_counter()
        key = self._key(request)
        if key[-1] is None:
            return self.engine.execute(request)
        cached = self._results.get(key)
        if cached is not MISS:
            return cached.annotate(request=request, cache_hit=True,
                                   elapsed_ms=elapsed_ms_since(started))
        response = self.engine.execute(request)
        if not response.degraded:
            self._results.put(key, response)
        return response

    # ------------------------------------------------------------------
    # the write side (serialized against all queries)
    # ------------------------------------------------------------------

    @property
    def _ir(self):
        return getattr(self.engine, "ir", self.engine)

    def _write(self, name: str, operation, *, log_params: dict | None = None):
        """Run one writer op under the write lock, WAL-logged first.

        ``log_params`` non-``None`` marks the op as replayable: with a
        WAL attached the record is appended *and fsynced* before
        ``operation()`` runs (log-before-apply, both under the write
        lock so log order is apply order), and the call returns — the
        acknowledgement — only after both.  ``None`` skips logging
        (snapshot/restore manage the log themselves).
        """
        telemetry = get_telemetry()
        with telemetry.tracer.span("service.write", operation=name):
            with self._rw.write_locked():
                if self._wal is not None and log_params is not None:
                    seq = self._wal.append(name, log_params)
                    if hasattr(self.engine, "wal_seq"):
                        self.engine.wal_seq = seq
                outcome = operation()
        self._count("writes")
        telemetry.metrics.counter("service.writes", operation=name).add(1)
        return outcome

    def reindex(self, url: str, text: str) -> None:
        """Replace one document's index entry, atomically for readers."""
        self._write("reindex", lambda: self._ir.reindex(url, text),
                    log_params={"url": url, "text": text})

    def remove(self, url: str) -> None:
        """Un-index one document, atomically for readers."""
        self._write("remove", lambda: self._ir.remove(url),
                    log_params={"url": url})

    def add_documents(self, documents) -> None:
        """Bulk-index on the clustered backend (see DistributedIndex)."""
        documents = [(str(url), str(text)) for url, text in documents]
        self._write("add_documents",
                    lambda: self._ir.index.add_documents(documents),
                    log_params={"documents": [list(pair)
                                              for pair in documents]})

    def populate(self):
        return self._write("populate", self.engine.populate, log_params={})

    def recrawl(self):
        return self._write("recrawl", self.engine.recrawl, log_params={})

    def maintain(self, batch_size: int | None = None):
        """Run pending maintenance; ``batch_size`` bounds each lock hold.

        Unbatched, one write-lock acquisition drains the whole queue —
        readers stall for the duration.  With ``batch_size`` the queue
        drains in bounded generation bumps: at most ``batch_size``
        scheduler tasks per write-lock acquisition, readers interleaving
        between batches.  Only the first batch logs a WAL record
        (replaying ``maintain`` drains the restored queue whole, which
        reaches the same state).
        """
        if batch_size is None:
            return self._write("maintain", self.engine.maintain,
                               log_params={})
        if batch_size < 1:
            raise QueryError(f"maintain batch_size must be >= 1, got "
                             f"{batch_size}")
        report = None
        while True:
            batch = self._write(
                "maintain", lambda: self.engine.maintain(limit=batch_size),
                log_params={} if report is None else None)
            report = batch if report is None else report.merge(batch)
            pending = getattr(self.engine, "maintenance_pending", None)
            if pending is None or pending() == 0:
                return report

    def snapshot(self, directory, keep: int = 3):
        """Checkpoint the engine; it runs as a write, so the save reads
        one generation and the log position that covers it.

        With a WAL attached the manifest records the log position the
        checkpoint covers, then the log rotates onto a fresh segment
        and drops segments fully covered by the *oldest retained*
        checkpoint — a later fallback load of an older generation can
        still find its replay tail.
        """
        from repro.persistence import save_engine

        def checkpoint():
            wal_seq = self._wal.last_seq if self._wal is not None else None
            path = save_engine(self.engine, directory, keep=keep,
                               wal_seq=wal_seq)
            if self._wal is not None:
                generation = int(path.name)
                self._checkpoints.append((generation, wal_seq))
                del self._checkpoints[:-max(1, keep)]
                self._wal.checkpoint(self._checkpoints[0][1], generation)
            return path

        return self._write("snapshot", checkpoint)

    def restore(self, directory, *, verify: bool = True,
                on_corrupt: str = "raise") -> None:
        """Swap in an engine restored from a checkpoint, under the
        write lock — queries in flight finish against the old engine;
        the next admitted query sees the restored one.

        With a WAL attached, the log tail past the snapshot's
        ``wal_seq`` is replayed before the swap completes, so the
        restored engine includes every acknowledged write.  The
        single-flight table and the result cache flush on swap: a
        restored engine's generation stamps can coincide with the old
        one's, and a post-restore query must never coalesce onto or be
        served a pre-restore result.
        """
        from repro.persistence import load_engine

        def swap():
            old = self.engine
            self.engine = load_engine(
                directory, old.schema, old.server,
                extractor=old.extractor, verify=verify,
                on_corrupt=on_corrupt, wal=self._wal)
            flushed = self._flights.flush()
            invalidated = self._results.invalidate()
            telemetry = get_telemetry()
            telemetry.metrics.counter("service.restore_flushed_flights") \
                .add(flushed)
            telemetry.metrics.counter("service.restore_invalidated") \
                .add(invalidated)

        self._write("restore", swap)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _enter(self, telemetry) -> None:
        with self._lifecycle:
            if self._state != "running":
                self._count("rejected")
                telemetry.metrics.counter("service.rejected").add(1)
                raise ServiceClosedError(
                    f"service is {self._state}; not accepting requests")
            self._inflight += 1
        telemetry.metrics.gauge("service.inflight").set(self._inflight)

    def _leave(self, telemetry) -> None:
        with self._lifecycle:
            self._inflight -= 1
            telemetry.metrics.gauge("service.inflight").set(self._inflight)
            self._lifecycle.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting, wait for in-flight requests; True if empty.

        Graceful shutdown: every request admitted before the drain
        finishes normally; every later arrival is rejected with
        :class:`ServiceClosedError`.  A timeout leaves the service in
        the ``draining`` state (still rejecting) with stragglers
        running.
        """
        with self._lifecycle:
            if self._state == "running":
                self._state = "draining"
            drained = self._lifecycle.wait_for(
                lambda: self._inflight == 0, timeout)
            if drained:
                self._state = "closed"
            return drained

    def close(self) -> None:
        self.drain()

    @property
    def state(self) -> str:
        return self._state

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection (healthz / metrics endpoints, tests)
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._stats_lock:
            self._counters[name] += 1

    def status(self) -> dict[str, object]:
        """A JSON-friendly liveness/throughput snapshot."""
        from repro.service.api import SCHEMA_VERSION

        with self._stats_lock:
            counters = dict(self._counters)
        with self._lifecycle:
            state = self._state
            inflight = self._inflight
        status = {
            "schema_version": SCHEMA_VERSION,
            "state": state,
            "inflight": inflight,
            "admission": self._admission.status(),
            "lock": self._rw.status(),
            "flights": self._flights.status(),
            "counters": counters,
        }
        if self._wal is not None:
            status["wal"] = self._wal.status()
        # with the process backend attached, healthz reports per-replica
        # health so an operator sees failed/bootstrapping workers
        remote = getattr(getattr(self._ir, "index", None), "remote", None)
        if remote is not None:
            status["replicas"] = remote.status()
        return status
