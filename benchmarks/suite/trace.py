"""Spans recorded by the suite itself, from outside the program.

A span is ``name, start, end, parent`` plus the request's ``trace_id``;
its name is ``<layer>/<call>`` with the layer a module name under
``src/repro``.  Spans come from two places only: the root span each
workload opens around one operation, and :class:`Traced` proxies placed
around the public objects the program calls through (the service the
HTTP daemon holds, the engine the service holds, the WAL).  Nothing
under ``src/`` is touched.  A handler thread has no open span of its
own, so its first span parents to the open root carrying the same
``trace_id`` (or, handed no request at all, to the only open root) —
that is how a client round trip adopts the spans it caused on other
threads.  ``suite`` as a layer is the benchmark's own glue.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    trace_id: str | None
    start: float
    end: float = 0.0
    kind: str | None = None     # roots only: query / write / visible

    @property
    def layer(self) -> str:
        return self.name.split("/")[0]

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class NullRecorder:
    """Tracing off: no spans, and ``wrap`` hands the target back."""

    spans: list = []

    def span(self, name, trace_id=None, kind=None):
        return nullcontext()

    def wrap(self, target, methods):
        return target


class Recorder:
    """Collects finished spans in memory; written out once at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots: dict[str, Span] = {}

    @contextmanager
    def span(self, name: str, trace_id: str | None = None,
             kind: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1]
            trace_id = trace_id or parent.trace_id
        else:
            parent = self._roots.get(trace_id)
            if parent is None and trace_id is None and len(self._roots) == 1:
                # a helper thread that was handed no request object:
                # with one operation in flight it can only serve that one
                parent, = self._roots.values()
                trace_id = parent.trace_id
        span = Span(next(self._ids), parent.id if parent else None, name,
                    trace_id, time.perf_counter(), kind=kind)
        if parent is None and trace_id is not None:
            self._roots[trace_id] = span
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if self._roots.get(trace_id) is span:
                del self._roots[trace_id]
            self.spans.append(span)

    def wrap(self, target, methods: dict[str, str]):
        return Traced(target, self, methods)

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


class Traced:
    """A proxy that records a span around the named methods of
    ``target`` and forwards everything else untouched."""

    def __init__(self, target, recorder: Recorder, methods: dict[str, str]):
        self.__dict__.update(_target=target, _recorder=recorder,
                             _methods=methods)

    def __getattr__(self, name):
        attribute = getattr(self._target, name)
        span_name = self._methods.get(name)
        if span_name is None:
            return attribute

        def traced(*args, **kwargs):
            trace_id = getattr(args[0], "trace_id", None) if args else None
            with self._recorder.span(span_name, trace_id):
                return attribute(*args, **kwargs)
        return traced

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time in ms: the span's duration minus the part
    of its interval that its child spans cover.

    Children are clipped to the parent, and where two children overlap
    (a parallel fan-out) the overlap belongs to the one that started
    first, so every instant of an operation is attributed to exactly
    one span and the self times of a tree sum to its root's duration.
    """
    known = {span.id for span in spans}
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent in known:
            children.setdefault(span.parent, []).append(span)
    result: dict[int, float] = {}

    def attribute(span: Span, low: float, high: float) -> None:
        covered, reach = 0.0, low
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            start = min(max(child.start, reach), high)
            end = max(start, min(child.end, high))
            attribute(child, start, end)
            covered += end - start
            reach = end
        result[span.id] = (high - low - covered) * 1000.0

    for span in spans:
        if span.parent not in known:
            attribute(span, span.start, span.end)
    return result


def layer_report(spans: list[Span]) -> dict:
    """Per-layer self time over the recorded operations.

    ``share`` is each layer's part of all traced time, which names the
    top two layers.  ``median_self_ms`` is per query operation, and
    ``unattributed_share`` says how far those medians are from summing
    to the median query latency (medians do not add, so it is not 0).
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    roots = [span for span in spans if span.parent not in by_id]

    def root_of(span: Span) -> Span:
        while span.parent in by_id:
            span = by_id[span.parent]
        return span

    totals: dict[str, float] = {}
    per_root: dict[int, dict[str, float]] = {root.id: {} for root in roots}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
        bucket = per_root[root_of(span).id]
        bucket[span.layer] = bucket.get(span.layer, 0.0) + own[span.id]
    traced_ms = sum(root.ms for root in roots)
    layers = {layer: {"self_ms_total": total,
                      "share": total / traced_ms if traced_ms else 0.0}
              for layer, total in totals.items()}
    queries = [root for root in roots if root.kind == "query"]
    report = {"operations": len(roots), "layers": layers,
              "top_layers": sorted(layers, key=lambda name:
                                   -layers[name]["share"])[:2]}
    if queries:
        for layer, row in layers.items():
            row["median_self_ms"] = statistics.median(
                per_root[root.id].get(layer, 0.0) for root in queries)
        median_query = statistics.median(root.ms for root in queries)
        report["median_query_ms"] = median_query
        report["unattributed_share"] = 1.0 - sum(
            row["median_self_ms"] for row in layers.values()) / median_query
    return report


def span_ms(spans: list[Span], name: str) -> list[float]:
    return [span.ms for span in spans if span.name == name]
