"""``inproc-cold``: in-process search, every query new to every cache."""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.config import ExecutionPolicy
from repro.ir.engine import IrEngine
from repro.service import SearchService
from repro.service.api import MODE_FRAGMENTED, SCHEMA_VERSION_V2

from benchmarks.suite import corpus
from benchmarks.suite.measure import QUERY, Measurement
from benchmarks.suite.workloads import (CheckFailed, Workload, keys_of,
                                        median, prefix_mean,
                                        response_detail, self_ms,
                                        service_layer_metrics)

#: every Nth response is checked against the exhaustive scan
CHECK_EVERY = 20
REFERENCE = ExecutionPolicy(prune=False, cache=False, plan_cache=False)


class InprocCold(Workload):
    name = "inproc-cold"
    why = ("Distinct schema-1 and schema-2 queries through "
           "SearchService.search: query parse/compile and ir top-N scans "
           "do the work, HTTP none.")
    documents = 2000
    min_ops = 400

    def set_up(self) -> None:
        self.docs = corpus.documents(self.documents, self.seed)
        self.engine = IrEngine(fragment_count=4)
        for url, text in self.docs:
            self.engine.index(url, text)
        self.service = SearchService(
            self.recorder.wrap(self.engine, {"execute": "ir/execute"}))
        self.requests = corpus.cold_requests(self.seed, self.docs,
                                             self.name)
        self._count = 0
        sample = self._search(next(self.requests))
        self.verify(Measurement([[sample]], 0.0))
        if not sample.ok:
            raise CheckFailed("inproc-cold: first answer is wrong")

    def warm_up(self) -> None:
        for _ in range(CHECK_EVERY):
            self._search(next(self.requests))

    def _search(self, request):
        sample, response = self.timed(
            QUERY, "service.service/search", request.trace_id,
            lambda: self.service.search(request))
        if response is not None:
            sample.detail.update(response_detail(response))
            if self._count % CHECK_EVERY == 0:
                sample.detail["response"] = response
        self._count += 1
        return sample

    def units(self):
        return [lambda: [self._search(next(self.requests))]]

    def verify(self, measurement: Measurement) -> None:
        """Re-run every 20th request exhaustively and compare.

        The pruned scan guarantees the top-N set, not its order, so
        fragmented bags compare as sets; everything else exactly.
        """
        for sample in measurement.all(QUERY):
            response = sample.detail.pop("response", None)
            if response is None:
                continue
            request = response.request
            reference = self.engine.execute(
                replace(request, policy=REFERENCE))
            got, want = keys_of(response), keys_of(reference)
            if request.mode == MODE_FRAGMENTED \
                    and request.schema_version != SCHEMA_VERSION_V2:
                got, want = set(got), set(want)
            sample.ok = (got == want
                         and response.total == reference.total
                         and response.facets == reference.facets)

    def layer_metrics(self, measurement: Measurement, telemetry,
                      prefix: int, report: dict) -> dict[str, float]:
        from repro.query import compile_query, parse_rich_query

        samples = measurement.all(QUERY)
        parse_ms, compile_ms = [], []
        rich = (request for request in corpus.cold_requests(
            self.seed, self.docs, self.name)
            if request.schema_version == SCHEMA_VERSION_V2)
        for _, request in zip(range(100), rich):
            started = time.perf_counter()
            parsed = parse_rich_query(request.query)
            parse_ms.append((time.perf_counter() - started) * 1000.0)
            started = time.perf_counter()
            compile_query(self.engine.relations, parsed,
                          field_boosts=request.boosts,
                          filters=request.filters)
            compile_ms.append((time.perf_counter() - started) * 1000.0)
        metrics = service_layer_metrics(self.service, samples)
        metrics.update(
            service_self_ms=self_ms(report, "service.service"),
            engine_ms=self_ms(report, "ir"),
            parse_ms=median(parse_ms),
            compile_ms=median(compile_ms),
            tuples_per_query=prefix_mean(measurement, prefix, "tuples"))
        return metrics

    def tear_down(self) -> None:
        self.service.close()
