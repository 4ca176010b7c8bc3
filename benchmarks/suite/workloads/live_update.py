"""``live-update``: reads and WAL-logged writes through one service."""

from __future__ import annotations

import itertools
import time

from repro.ir.engine import IrEngine
from repro.service import SearchRequest, SearchService
from repro.service.api import MODE_FRAGMENTED
from repro.telemetry import get_telemetry
from repro.wal import WriteAheadLog

from benchmarks.suite import corpus
from benchmarks.suite.measure import QUERY, VISIBLE, WRITE, Measurement
from benchmarks.suite.trace import span_ms
from benchmarks.suite.workloads import (CheckFailed, Workload, keys_of,
                                        mean, median, response_detail,
                                        self_ms, service_layer_metrics,
                                        tree_bytes)

READS_PER_CYCLE = 20
#: distinct terms of a typical generated document (median over seeds)
TYPICAL_TERMS = 80
ADD, REINDEX, REMOVE = "add", "reindex", "remove"


def _distinct_terms(text: str) -> int:
    return len(set(text.split()))


class LiveUpdate(Workload):
    name = "live-update"
    why = ("20 distinct reads then one WAL-logged write, rotating add / "
           "reindex / remove: the only place the remove cliff, the "
           "post-write rebuild, fsync and the rwlock show.")
    documents = 400
    min_ops = 6 * (READS_PER_CYCLE + 1)
    #: one add, one reindex, one remove and their reads: the stop rule
    #: never splits a rotation, so every run measures the same mix
    unit_ops = 3 * (READS_PER_CYCLE + 1)

    def set_up(self) -> None:
        self.docs = corpus.documents(self.documents, self.seed)
        self.engine = IrEngine(fragment_count=4)
        for url, text in self.docs:
            self.engine.index(url, text)
        self.wal_dir = self.fresh_dir("wal")
        self.wal = WriteAheadLog(self.wal_dir)
        self.service = SearchService(
            self.recorder.wrap(self.engine, {
                "execute": "ir/execute", "reindex": "ir/reindex",
                "remove": "ir/remove"}),
            wal=self.recorder.wrap(self.wal, {"append": "wal/append"}))
        self.queries = corpus.distinct_bags(self.seed, self.name)
        self.fresh = corpus.stream_rng(self.seed, "live-text")
        # un-indexing costs ~60 ms per distinct term of the document, so
        # every document written or replaced has the same number of
        # them: the work per rotation is then the same for every seed
        self.typical = min(
            (_distinct_terms(text) for _, text in self.docs),
            key=lambda size: abs(size - TYPICAL_TERMS))
        self.targets = itertools.cycle(
            url for url, text in self.docs
            if _distinct_terms(text) == self.typical)
        self._writes = itertools.count()
        self._reads = itertools.count()
        self._rotations = itertools.count()
        self.rebuild_ms: list[float] = []
        if not self._read(next(self.queries), QUERY, None).ok:
            raise CheckFailed("live-update: first answer is wrong")

    def _read(self, query: str, kind: str, expect: tuple | None):
        """One read; ``expect`` is (url, must_be_present) for the first
        read after a write, which queries that write's marker."""
        request = SearchRequest(query=query, mode=MODE_FRAGMENTED,
                                trace_id=f"{self.name}-r{next(self._reads)}")
        sample, response = self.timed(
            kind, "service.service/search", request.trace_id,
            lambda: self.service.search(request))
        if response is not None:
            sample.detail.update(response_detail(response))
            if expect is not None:
                url, present = expect
                sample.ok = (url in keys_of(response)) == present
        return sample

    def _write(self, op: str, url: str, text: str | None):
        trace_id = f"{self.name}-w{next(self._writes)}"
        before = self._wal_facts() if self.tracing else None
        call = (lambda: self.service.remove(url)) if op == REMOVE \
            else (lambda: self.service.reindex(url, text))
        sample, _ = self.timed(WRITE, f"service.service/{op}", trace_id,
                               call)
        sample.detail.update(op=op, trace_id=trace_id)
        if before is not None:
            fsyncs, size = self._wal_facts()
            sample.detail.update(fsyncs=fsyncs - before[0],
                                 wal_bytes=size - before[1])
        return sample

    def _wal_facts(self) -> tuple[float, int]:
        """(fsyncs so far, bytes on disk) of the write-ahead log."""
        return (get_telemetry().metrics.sum_counters("wal.fsyncs"),
                tree_bytes(self.wal_dir))

    def _rebuild_probe(self) -> None:
        """Traced runs only: pay the post-write rebuild here, under the
        clock, so the visible read's share of it is known."""
        started = time.perf_counter()
        self.engine.relations.postings_index()
        self.engine.relations.refresh_idf()
        self.engine.fragments()
        self.rebuild_ms.append((time.perf_counter() - started) * 1000.0)

    def _cycle(self, op: str, url: str, number: int) -> list:
        """One write, the read that must observe it, then 19 reads."""
        term = corpus.marker(number)
        text = None if op == REMOVE else f"{self._fresh_text()} {term}"
        samples = [self._write(op, url, text)]
        if self.tracing:
            self._rebuild_probe()
        # a removed document's own marker must no longer find it
        samples.append(self._read(term, VISIBLE, (url, op != REMOVE)))
        samples += [self._read(next(self.queries), QUERY, None)
                    for _ in range(READS_PER_CYCLE - 1)]
        return samples

    def _fresh_text(self) -> str:
        while True:
            text = corpus.document_text(self.fresh, 1)
            if _distinct_terms(text) == self.typical:
                return text

    def _rotation(self) -> list:
        """Add a new document, reindex an existing one, remove the new
        one again: the corpus size is the same after every rotation."""
        number = next(self._rotations)
        new_url = f"Article:live{number:05d}:body"
        old_url = next(self.targets)
        return (self._cycle(ADD, new_url, 2 * number)
                + self._cycle(REINDEX, old_url, 2 * number + 1)
                + self._cycle(REMOVE, new_url, 2 * number))

    def units(self):
        return [self._rotation]

    def layer_metrics(self, measurement: Measurement, telemetry,
                      prefix: int, report: dict) -> dict[str, float]:
        spans = self.recorder.spans
        writes = [s for s in measurement.prefix(prefix) if s.kind == WRITE]
        # a reindex of a new url is a pure add; of a known one, remove + add
        reindex_ms = {span.trace_id: span.ms for span in spans
                      if span.name == "ir/reindex"}
        adds = [reindex_ms[s.detail["trace_id"]]
                for s in measurement.all(WRITE)
                if s.ok and s.detail["op"] == ADD]
        metrics = service_layer_metrics(self.service,
                                        measurement.all(QUERY))
        metrics.update(
            service_self_ms=self_ms(report, "service.service"),
            engine_ms=self_ms(report, "ir"),
            add_ms=median(adds),
            remove_ms=median(span_ms(spans, "ir/remove")),
            rebuild_ms=median(self.rebuild_ms),
            wal_append_ms=median(span_ms(spans, "wal/append")),
            fsyncs_per_write=mean(s.detail["fsyncs"] for s in writes),
            wal_bytes_per_write=mean(s.detail["wal_bytes"] for s in writes))
        return metrics

    def tear_down(self) -> None:
        self.service.close()
        self.wal.close()
