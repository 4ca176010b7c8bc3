"""``--selftest``: the suite's own rules, checked in seconds, no servers."""

from __future__ import annotations

import itertools
import json

from benchmarks.suite import corpus, metrics
from benchmarks.suite.cli import ROOT
from benchmarks.suite.measure import (Sample, StopRule, percentile,
                                      run_closed_loop)
from benchmarks.suite.trace import Span, layer_report, self_times


def check_percentile_rule() -> None:
    """p95 needs 10 samples beyond it, so 200 in all; else null."""
    values = [float(n) for n in range(1, 201)]
    assert percentile(values, 0.95) == 190.0
    assert percentile(values[:199], 0.95) is None
    assert percentile(values, 0.99) is None
    assert percentile([float(n) for n in range(1000)], 0.99) == 989.0
    assert percentile([], 0.5) is None


def check_stop_rule() -> None:
    """Both minima, a unit boundary, and the ceiling."""
    rule = StopRule(min_seconds=2.0, min_ops=10, ceiling_seconds=5.0)
    assert not rule.done(1.0, 50)        # ops met, seconds not
    assert not rule.done(3.0, 9)         # seconds met, ops not
    assert rule.done(2.0, 10)
    assert rule.done(5.0, 0)             # the ceiling ends it regardless
    # a unit is never split: three operations per call, so the count
    # stops on a multiple of three even though ten was asked for
    unit = lambda: [Sample("query", 0.0)] * 3    # noqa: E731
    measured = run_closed_loop([unit], StopRule(0.0, 10, 5.0))
    assert len(measured.all()) == 12
    both = run_closed_loop([unit, unit], StopRule(0.0, 10, 5.0))
    assert len(both.all()) % 3 == 0 and len(both.all()) >= 12


def check_self_time() -> None:
    """Self time is the span minus what its children cover."""
    spans = [Span(1, None, "a/root", "t", 0.0, 10.0, "query"),
             Span(2, 1, "b/first", "t", 1.0, 4.0),
             Span(3, 1, "b/second", "t", 3.0, 6.0),    # overlaps 2
             Span(4, 2, "c/leaf", "t", 2.0, 3.0),
             Span(5, 1, "b/late", "t", 9.0, 12.0)]     # clipped to 10
    own = self_times(spans)
    assert own == {1: 4000.0, 2: 2000.0, 3: 2000.0, 4: 1000.0, 5: 1000.0}
    assert sum(own.values()) == spans[0].ms
    report = layer_report(spans)
    assert report["top_layers"] == ["b", "a"]
    assert abs(report["unattributed_share"]) < 1e-12


def check_determinism() -> None:
    """Same seed, same inputs; another seed, other inputs."""
    def inputs(seed: int):
        docs = corpus.documents(40, seed)
        requests = [(r.query, r.mode, r.shape_token()) for r in
                    itertools.islice(corpus.cold_requests(seed, docs, "x"),
                                     60)]
        bags = list(itertools.islice(corpus.distinct_bags(seed, "y"), 40))
        hot = list(itertools.islice(corpus.hot_stream(seed, 0), 40))
        return docs, requests, bags, corpus.hot_set(seed), hot
    assert inputs(13) == inputs(13)
    assert all(a != b for a, b in zip(inputs(13), inputs(29)))
    requests = inputs(13)[1]
    assert len(set(requests)) == len(requests)       # every one distinct
    assert {shape[0] for _, _, shape in requests} == {1, 2}


def check_analyzer_keeps_terms() -> None:
    """Generated terms must reach the index as written."""
    from repro.ir.text import analyze

    words = [f"w{rank:04d}" for rank in range(corpus.VOCABULARY)]
    words += [corpus.marker(7), *corpus.MARKERS, "1987"]
    assert analyze(" ".join(words)) == words


def check_benchmark_json() -> None:
    """``BENCHMARK.json`` names what this suite reports, no more."""
    from benchmarks.suite.workloads import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = workloads()
    assert [w["name"] for w in spec["workloads"]] == list(known)
    assert all(w["why"] == known[w["name"]].why for w in spec["workloads"])
    gated = [row for row in metrics.END_TO_END if row.everywhere]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == \
        [(row.name, row.unit, row.better, row.bound) for row in gated]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(row.name, row.unit, row.better) for row in metrics.PER_LAYER]


def run() -> int:
    checks = [check_percentile_rule, check_stop_rule, check_self_time,
              check_determinism, check_analyzer_keeps_terms,
              check_benchmark_json]
    for check in checks:
        check()
        print(f"ok  {check.__name__}: {check.__doc__.splitlines()[0]}")
    print(f"{len(checks)} self-tests passed")
    return 0
