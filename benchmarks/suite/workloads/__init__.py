"""The six workloads.  Names are final; later issues quote them."""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable

from benchmarks.suite.measure import QUERY, Measurement, Sample
from benchmarks.suite.trace import NullRecorder, Recorder


class CheckFailed(Exception):
    """Set-up produced a wrong answer; the run cannot be trusted."""


class Workload:
    """One named workload: set-up, units of work, checks, tear-down.

    ``set_up`` goes from nothing to a first *correct* answer and is
    timed as ``setup_s``; it may be called again after ``tear_down``.
    ``units`` returns one function per client; each call performs one
    stop-rule unit (``unit_ops`` operations) and returns its samples
    with ``ok`` already decided, except for checks too dear to make
    between operations, which ``verify`` makes after the clock stops.
    """

    name = ""
    why = ""
    clients = 1
    documents = 0
    min_ops = 0
    unit_ops = 1
    #: worker processes are part of the system: their memory counts
    spawns_workers = False

    def __init__(self, seed: int, workdir: Path,
                 recorder: Recorder | NullRecorder):
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self.tracing = isinstance(recorder, Recorder)
        #: exact counts and sizes known once set-up is done
        self.facts: dict[str, float] = {}

    def set_up(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def units(self) -> list[Callable[[], list[Sample]]]:
        raise NotImplementedError

    def verify(self, measurement: Measurement) -> None:
        pass

    def layer_metrics(self, measurement: Measurement, telemetry,
                      prefix: int, report: dict) -> dict[str, float]:
        """Per-layer numbers of a traced run.  ``prefix`` is how many
        samples per client the exact counts are averaged over;
        ``report`` is :func:`~benchmarks.suite.trace.layer_report`."""
        return {}

    def tear_down(self) -> None:
        pass

    # -- helpers ----------------------------------------------------------

    def timed(self, kind: str, span_name: str, trace_id: str | None,
              call: Callable[[], object]) -> tuple[Sample, object]:
        """Run one operation under its root span and the clock.

        This is the boundary where a raised operation becomes a failed
        sample instead of ending the run; the error text is kept.
        """
        with self.recorder.span(span_name, trace_id, kind):
            started = time.perf_counter()
            try:
                result = call()
            except Exception as error:  # noqa: BLE001 - counted, reported
                ms = (time.perf_counter() - started) * 1000.0
                return Sample(kind, ms, ok=False,
                              detail={"error": repr(error)}), None
            ms = (time.perf_counter() - started) * 1000.0
        return Sample(kind, ms), result

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory under the run's work directory."""
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-{label}-",
                                     dir=self.workdir))


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_ms(report: dict, layer: str) -> float:
    """Median self time of one layer per query operation."""
    return report["layers"].get(layer, {}).get("median_self_ms", 0.0)


def prefix_mean(measurement: Measurement, prefix: int, key: str) -> float:
    """An exact count averaged over the fixed leading samples."""
    return mean(sample.detail.get(key, 0)
                for sample in measurement.prefix(prefix)
                if sample.kind == QUERY)


def tree_bytes(directory: Path) -> int:
    """Bytes of every file under ``directory``."""
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def keys_of(response) -> list[str]:
    return [hit.key for hit in response.hits]


def same_ranking(got, want, tolerance: float = 1e-9) -> bool:
    """Two (doc, score) rankings agree: equal scores rank by rank, and
    the same documents but for a tie straddling the cut.  Two plans sum
    the same products in different orders, so scores may differ in the
    last bits and tied documents may swap."""
    if len(got) != len(want):
        return False
    if any(abs(g[1] - w[1]) > tolerance for g, w in zip(got, want)):
        return False
    wanted = {int(doc) for doc, _ in want}
    return all(int(doc) in wanted or abs(score - want[-1][1]) <= tolerance
               for doc, score in got)


def response_detail(response) -> dict:
    return {"tuples": response.tuples_touched,
            "cache_hit": response.cache_hit,
            "queue_ms": response.queue_ms}


def service_layer_metrics(service, samples: list[Sample]) -> dict:
    """Admission counters and the shares every service workload reads."""
    counters = service.status()["counters"]
    return {
        "admitted": counters["admitted"],
        "shed": counters["shed"],
        "coalesced": counters["coalesced"],
        "queue_ms": median(s.detail.get("queue_ms", 0.0) for s in samples),
        "cache_hit_ratio": mean(bool(s.detail.get("cache_hit"))
                                for s in samples),
    }


def workloads() -> dict[str, type[Workload]]:
    """name -> class, in report order (imports the program lazily)."""
    from benchmarks.suite.workloads.cluster_process import ClusterProcess
    from benchmarks.suite.workloads.cold_start import ColdStart
    from benchmarks.suite.workloads.conceptual_mixed import ConceptualMixed
    from benchmarks.suite.workloads.http_hot import HttpHot
    from benchmarks.suite.workloads.inproc_cold import InprocCold
    from benchmarks.suite.workloads.live_update import LiveUpdate

    return {cls.name: cls for cls in (HttpHot, InprocCold, LiveUpdate,
                                      ClusterProcess, ColdStart,
                                      ConceptualMixed)}
