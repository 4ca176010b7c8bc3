"""Exporters: span trees and metric snapshots as JSON and as text.

Two consumers drive the format:

* the ``repro-search stats`` CLI renders the human-readable trees
  (:func:`format_span`, :func:`format_report`),
* benchmarks persist machine-readable ``BENCH_*.json`` reports
  (:func:`build_report` / :func:`write_report` / :func:`load_report`),
  seeding the perf trajectory across PRs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.telemetry.trace import Span

__all__ = [
    "span_to_dict", "build_report", "write_report", "load_report",
    "format_span", "format_report",
]

REPORT_VERSION = 1


# -- JSON -----------------------------------------------------------------

def span_to_dict(span: Span) -> dict[str, Any]:
    return {
        "name": span.name,
        "attributes": dict(span.attributes),
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "status": span.status,
        "error": span.error,
        "children": [span_to_dict(child) for child in span.children],
    }


def build_report(telemetry, meta: dict[str, Any] | None = None
                 ) -> dict[str, Any]:
    """The report dict benchmarks write as ``BENCH_*.json``."""
    return {
        "version": REPORT_VERSION,
        "meta": dict(meta or {}),
        "spans": [span_to_dict(root) for root in telemetry.tracer.roots],
        "metrics": telemetry.metrics.snapshot(),
    }


def write_report(path: str | Path, telemetry,
                 meta: dict[str, Any] | None = None) -> dict[str, Any]:
    report = build_report(telemetry, meta)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True))
    return report


def load_report(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


# -- text -----------------------------------------------------------------

def format_span(span, indent: int = 0) -> str:
    """One span subtree in the EXPLAIN-style layout of the plan printer."""
    pad = "  " * indent
    duration = span.duration_ms
    timing = f"  [{duration:.3f}ms]" if duration is not None else ""
    attributes = ""
    if span.attributes:
        parts = ", ".join(f"{key}={value}"
                          for key, value in span.attributes.items())
        attributes = f"  ({parts})"
    failure = f"  !{span.error}" if span.status != "ok" else ""
    lines = [f"{pad}{span.name}{timing}{attributes}{failure}"]
    for child in span.children:
        lines.append(format_span(child, indent + 1))
    return "\n".join(lines)


def _format_snapshot(snapshot: dict[str, dict[str, Any]]) -> str:
    """A metric snapshot as sorted ``kind name value`` lines."""
    lines: list[str] = []
    for kind in ("counters", "gauges", "histograms"):
        for name in sorted(snapshot.get(kind, ())):
            value = snapshot[kind][name]
            if kind == "histograms":
                value = (f"count={value['count']} sum={value['sum']:g} "
                         f"buckets={value['buckets']}")
            lines.append(f"{kind[:-1]} {name} {value}")
    return "\n".join(lines)


def format_report(telemetry) -> str:
    """Span trees plus the metric snapshot, ready for the CLI."""
    sections = ["== trace =="]
    roots = list(telemetry.tracer.roots)
    if roots:
        sections.extend(format_span(root) for root in roots)
    else:
        sections.append("(no spans recorded)")
    sections.append("")
    sections.append("== metrics ==")
    snapshot_text = _format_snapshot(telemetry.metrics.snapshot())
    sections.append(snapshot_text if snapshot_text else "(no metrics)")
    return "\n".join(sections)
