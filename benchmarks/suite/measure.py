"""The measured phase: samples, the stop rule, the percentile rule.

Closed loop: each client issues its next unit of work when the previous
one has completed.  A *unit* is what the stop rule treats as
indivisible — one request for most workloads, one whole add / reindex /
remove rotation for ``live-update`` so every run measures the same mix.
"""

from __future__ import annotations

import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

QUERY, WRITE, VISIBLE = "query", "write", "visible"


@dataclass
class Sample:
    """One completed operation.  A failed one carries ``ok=False``."""

    kind: str
    ms: float
    ok: bool = True
    #: exact counts and cheap facts read off the response
    #: (``tuples``, ``cache_hit``, ``queue_ms``, ...)
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StopRule:
    """Stop on a unit boundary once *both* minima are met, or at the
    ceiling, whichever comes first."""

    min_seconds: float
    min_ops: int
    ceiling_seconds: float

    def done(self, elapsed: float, ops: int) -> bool:
        if elapsed >= self.ceiling_seconds:
            return True
        return elapsed >= self.min_seconds and ops >= self.min_ops


@dataclass
class Measurement:
    samples: list[list[Sample]]     # one list per client, in issue order
    wall_seconds: float

    def all(self, kind: str | None = None) -> list[Sample]:
        return [sample for client in self.samples for sample in client
                if kind is None or sample.kind == kind]

    def prefix(self, per_client: int) -> list[Sample]:
        """The first ``per_client`` samples of every client: a fixed,
        seed-determined set however long the run lasted, which is what
        exact counts are averaged over."""
        return [sample for client in self.samples
                for sample in client[:per_client]]


def run_closed_loop(units: list[Callable[[], list[Sample]]],
                    rule: StopRule) -> Measurement:
    """Drive one client per unit function until the rule says stop.

    A single client runs on the calling thread; several run on one
    thread each and share the operation count.
    """
    samples: list[list[Sample]] = [[] for _ in units]
    lock = threading.Lock()
    total = 0
    started = time.perf_counter()

    def client(index: int) -> None:
        nonlocal total
        unit, mine = units[index], samples[index]
        while True:
            with lock:
                if rule.done(time.perf_counter() - started, total):
                    return
            done = unit()
            mine.extend(done)
            with lock:
                total += len(done)

    if len(units) == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(len(units))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return Measurement(samples, time.perf_counter() - started)


def percentile(values: list[float], q: float, min_beyond: int = 10
               ) -> float | None:
    """Nearest-rank percentile, or ``None`` unless at least
    ``min_beyond`` samples lie beyond it (p95 needs 200, p99 1 000)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    if len(ordered) - 1 - rank < min_beyond:
        return None
    return ordered[rank]


def median_ms(samples: list[Sample]) -> float | None:
    return statistics.median(s.ms for s in samples) if samples else None


def peak_rss_mb(with_children: bool) -> float:
    """``ru_maxrss`` of this process, plus that of its largest reaped
    child for a workload that spawns workers."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def end_to_end(measurement: Measurement, setup_s: float,
               with_children: bool, bytes_per_doc: float | None) -> dict:
    """The nine end-to-end metrics; ``None`` where one does not apply.

    A failed operation has no latency worth reporting: it counts in
    ``failed_share`` and is left out of the percentiles.
    """
    every = measurement.all()
    good = [sample for sample in every if sample.ok]
    queries = [s.ms for s in good if s.kind == QUERY]
    return {
        "setup_s": setup_s,
        "throughput_ops_s": len(good) / measurement.wall_seconds,
        "p50_ms": statistics.median(queries) if queries else None,
        "p95_ms": percentile(queries, 0.95),
        "write_p50_ms": median_ms([s for s in good if s.kind == WRITE]),
        "visible_p50_ms": median_ms([s for s in good if s.kind == VISIBLE]),
        "bytes_per_doc": bytes_per_doc,
        "peak_rss_mb": peak_rss_mb(with_children),
        "failed_share": (len(every) - len(good)) / max(1, len(every)),
    }
