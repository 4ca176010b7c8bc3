"""Telemetry: tracing, metrics, and unified cost accounting.

The paper's scalability story rests on measured claims — per-server
work ~ 1/k on the shared-nothing cluster, fragment pruning cutting the
tuples read, incremental FDS maintenance avoiding full re-parses.  This
package is the measurement substrate behind all of them:

* :mod:`repro.telemetry.metrics` — counters, gauges and fixed-bucket
  histograms in a thread-safe :class:`MetricsRegistry`,
* :mod:`repro.telemetry.trace` — nested spans on the monotonic clock
  with an in-memory collector,
* :mod:`repro.telemetry.export` — JSON reports (``BENCH_*.json``) and
  the text renderings the CLI prints,
* :mod:`repro.telemetry.runtime` — the global default with a null
  no-op mode, so instrumented code pays near-zero cost when off.
"""

from repro.telemetry.export import (build_report, format_report,
                                    format_span, load_report,
                                    span_to_dict, write_report)
from repro.telemetry.metrics import (DEFAULT_BUCKETS, Counter, Gauge,
                                     Histogram, MetricsRegistry,
                                     NullMetricsRegistry)
from repro.telemetry.runtime import (NULL_TELEMETRY, NullTelemetry,
                                     Telemetry, disable, enable,
                                     get_telemetry, is_enabled,
                                     set_telemetry, telemetry_session)
from repro.telemetry.trace import NULL_SPAN, NullTracer, Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NullMetricsRegistry", "DEFAULT_BUCKETS",
    "Span", "Tracer", "NullTracer", "NULL_SPAN",
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY",
    "get_telemetry", "set_telemetry", "enable", "disable", "is_enabled",
    "telemetry_session",
    "span_to_dict", "build_report", "write_report", "load_report",
    "format_span", "format_report",
]
