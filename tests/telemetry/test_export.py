"""JSON report round-trips and the text renderings."""

from repro.telemetry import (Telemetry, build_report, format_report,
                             format_span, load_report, span_to_dict,
                             write_report)
from repro.telemetry.export import _format_snapshot
from repro.telemetry.trace import Span


def span_from_dict(data) -> Span:
    """The inverse of ``span_to_dict``: the JSON form round-trips."""
    span = Span(data["name"], data.get("attributes"))
    span.start_ns = data.get("start_ns")
    span.end_ns = data.get("end_ns")
    span.status = data.get("status", "ok")
    span.error = data.get("error")
    for child in data.get("children", ()):
        span.add_child(span_from_dict(child))
    return span


def make_session() -> Telemetry:
    telemetry = Telemetry()
    with telemetry.tracer.span("query", schema="s") as span:
        with telemetry.tracer.span("plan.content"):
            with telemetry.tracer.span("op.IrProbe", matched=2):
                pass
        span.set_attribute("rows", 1)
    telemetry.metrics.counter("monetdb.tuples_touched", server="n0").add(9)
    telemetry.metrics.gauge("depth").set(3)
    telemetry.metrics.histogram("lat_ms", buckets=(1, 10)).observe(4)
    return telemetry


class TestSpanRoundTrip:
    def test_dict_round_trip_preserves_every_field(self):
        telemetry = make_session()
        root = telemetry.tracer.roots[0]
        rebuilt = span_from_dict(span_to_dict(root))
        assert span_to_dict(rebuilt) == span_to_dict(root)
        assert rebuilt.name == "query"
        assert rebuilt.children[0].children[0].name == "op.IrProbe"
        assert rebuilt.duration_ns == root.duration_ns

    def test_error_status_round_trips(self):
        telemetry = Telemetry()
        try:
            with telemetry.tracer.span("bad"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        root = telemetry.tracer.roots[0]
        rebuilt = span_from_dict(span_to_dict(root))
        assert rebuilt.status == "error"
        assert rebuilt.error == "RuntimeError: x"


class TestReport:
    def test_build_report_carries_spans_and_metrics(self):
        telemetry = make_session()
        report = build_report(telemetry, meta={"bench": "unit"})
        assert report["meta"] == {"bench": "unit"}
        assert report["spans"][0]["name"] == "query"
        assert report["metrics"]["counters"][
            "monetdb.tuples_touched{server=n0}"] == 9
        assert report["metrics"]["histograms"]["lat_ms"]["count"] == 1

    def test_write_and_load_round_trip(self, tmp_path):
        telemetry = make_session()
        path = tmp_path / "BENCH_unit.json"
        written = write_report(path, telemetry, meta={"k": "v"})
        assert load_report(path) == written

    def test_report_is_json_not_python_repr(self, tmp_path):
        telemetry = make_session()
        path = tmp_path / "r.json"
        write_report(path, telemetry)
        text = path.read_text()
        assert "'" not in text.replace("\\'", "")


class TestTextRendering:
    def test_format_span_indents_children(self):
        telemetry = make_session()
        text = format_span(telemetry.tracer.roots[0])
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("  plan.content")
        assert lines[2].startswith("    op.IrProbe")
        assert "(matched=2)" in lines[2]
        assert "ms]" in lines[0]

    def test_format_snapshot_lists_every_kind(self):
        telemetry = make_session()
        text = _format_snapshot(telemetry.metrics.snapshot())
        assert "counter monetdb.tuples_touched{server=n0} 9" in text
        assert "gauge depth 3" in text
        assert "histogram lat_ms count=1" in text

    def test_format_report_combines_sections(self):
        telemetry = make_session()
        text = format_report(telemetry)
        assert "== trace ==" in text
        assert "== metrics ==" in text
        assert "query" in text

    def test_format_report_empty_session(self):
        text = format_report(Telemetry())
        assert "(no spans recorded)" in text
        assert "(no metrics)" in text
