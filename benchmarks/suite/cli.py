"""Command line of the benchmark suite.

Two forms of one program:

* ``python -m benchmarks.suite`` runs every workload and prints every
  metric by name with its unit (``--trace 1`` adds the traced run and
  the per-layer table, ``--repeat N --check`` compares whole sets).
* ``python3 -m benchmarks.suite --workload NAME --seed N --seconds S
  --trace 0|1`` is the form ``BENCHMARK.json`` gives an outside driver:
  one workload, and as the last line of standard output one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``.

Either way the process exits non-zero when any answer was wrong,
refused or raised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, suppress
from pathlib import Path

from benchmarks.suite import metrics as names
from benchmarks.suite.measure import (QUERY, StopRule, end_to_end,
                                      percentile, run_closed_loop)
from benchmarks.suite.trace import NullRecorder, Recorder, layer_report

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / ".bench_suite"
DEFAULT_SEED = 13
MIN_SECONDS = 15.0
#: set-up + warm-up + measure of one workload stays under this
CEILING_SECONDS = 28.0
#: set-up is repeated, and its median reported, while the repeats
#: still fit this budget (the dearest workload sets up once)
SETUP_REPEATS = 3
SETUP_BUDGET_SECONDS = 9.0


def scaled_min_ops(workload, scale: float) -> int:
    """``min_ops`` x scale in whole stop-rule units, at least one."""
    units = max(1, int(workload.min_ops * scale / workload.unit_ops))
    return units * workload.unit_ops


def run_workload(cls, seed: int, workdir: Path, seconds: float,
                 scale: float, traced: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, warm up, measure and check one workload; tear it down."""
    from repro.telemetry import NullTracer, Telemetry, telemetry_session

    began = time.perf_counter()
    recorder = Recorder() if traced else NullRecorder()
    # the program's own counters are read in a traced run only; its
    # tracer stays off, the spans are the suite's
    session = telemetry_session(Telemetry(tracer=NullTracer())) \
        if traced else nullcontext()
    workload = cls(seed, workdir, recorder)
    with session as telemetry:
        setups: list[float] = []
        try:
            while True:
                started = time.perf_counter()
                workload.set_up()
                setups.append(time.perf_counter() - started)
                if len(setups) == setup_repeats or \
                        sum(setups) + max(setups) > SETUP_BUDGET_SECONDS:
                    break
                workload.tear_down()
            workload.warm_up()
            recorder.spans.clear()
            min_ops = scaled_min_ops(workload, scale)
            spent = time.perf_counter() - began
            rule = StopRule(seconds, min_ops,
                            max(seconds, CEILING_SECONDS - spent))
            measurement = run_closed_loop(workload.units(), rule)
            workload.verify(measurement)
            layers = report = None
            if traced:
                report = layer_report(recorder.spans)
                layers = workload.layer_metrics(
                    measurement, telemetry,
                    max(1, min_ops // workload.clients), report)
        except BaseException:
            # stop whatever set-up got as far as starting; the error
            # that brought us here is the one worth reporting
            with suppress(Exception):
                workload.tear_down()
            raise
        workload.tear_down()
    result = end_to_end(measurement, statistics.median(setups),
                        workload.spawns_workers,
                        workload.facts.get("bytes_per_doc"))
    every = measurement.all()
    queries = [s.ms for s in every if s.ok and s.kind == QUERY]
    errors = [s.detail.get("error", "wrong answer")
              for s in every if not s.ok]
    return {
        "workload": cls.name, "seed": seed, "traced": traced,
        "clients": cls.clients, "documents": cls.documents,
        "min_seconds": seconds, "min_ops": min_ops,
        "setups": setups, "wall_seconds": measurement.wall_seconds,
        "total_seconds": time.perf_counter() - began,
        "attempted": len(every), "failed": len(errors),
        "first_errors": errors[:3],
        "query_samples": len(queries),
        "p99_ms": percentile(queries, 0.99),
        "end_to_end": result, "per_layer": layers, "layer_report": report,
        "spans": recorder.to_json() if traced else None,
    }


def run_one(args) -> dict:
    """One workload in this process: the form an outside driver runs."""
    from benchmarks.suite.workloads import workloads

    # anything the program puts in a temporary file stays in the checkout
    tempfile.tempdir = str(OUT)
    workdir = Path(tempfile.mkdtemp(prefix="work-"))
    scale = 0.1 if args.quick else args.seconds / MIN_SECONDS
    try:
        report = run_workload(workloads()[args.workload], args.seed, workdir,
                              args.seconds, scale, bool(args.trace),
                              1 if args.quick else SETUP_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(report)
    if args.trace:
        print_layers(report)
        spans = OUT / f"trace-{args.workload}.json"
        spans.write_text(json.dumps(report.pop("spans")))
        print(f"   spans written to {spans}")
    return report


def run_set(selected: list[str], args, traced: bool) -> dict[str, dict]:
    """Every selected workload once, each in a fresh interpreter so none
    inherits another's heap, caches or peak memory; name -> report."""
    reports = {}
    for name in selected:
        handle, path = tempfile.mkstemp(prefix="result-", suffix=".json",
                                        dir=OUT)
        os.close(handle)
        command = [sys.executable, "-m", "benchmarks.suite",
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(int(traced)), "--json", path]
        try:
            done = subprocess.run(command + ["--quick"] * args.quick,
                                  cwd=ROOT, capture_output=True, text=True)
            # the child's report, without its one-object last line
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            written = Path(path).read_text()
            if not written:
                sys.stderr.write(done.stderr)
                raise RuntimeError(f"{name} ended with code "
                                   f"{done.returncode} and no result")
            reports[name] = json.loads(written)
        finally:
            os.unlink(path)
    return reports


def print_report(report: dict) -> None:
    units = {row.name: row.unit for row in names.END_TO_END}
    print(f"== {report['workload']}  ({report['clients']} client(s), "
          f"{report['documents']} docs, seed {report['seed']}"
          f"{', traced' if report['traced'] else ''})  "
          f"{report['wall_seconds']:.1f} s measured of "
          f"{report['total_seconds']:.1f} s, {report['attempted']} ops, "
          f"{report['failed']} failed")
    for name, value in report["end_to_end"].items():
        shown = "null" if value is None else f"{value:.6g} {units[name]}"
        note = f"   (n={report['query_samples']})" \
            if name == "p50_ms" else ""
        print(f"   {name:<18} {shown}{note}")
    if report["p99_ms"] is not None:
        print(f"   {'p99_ms (ungated)':<18} {report['p99_ms']:.6g} ms")
    for error in report["first_errors"]:
        print(f"   FAILED: {error}")


def print_layers(report: dict) -> None:
    rows = {row.name: row for row in names.PER_LAYER}
    print(f"-- {report['workload']}: per-layer metrics (traced run)")
    for name, value in report["per_layer"].items():
        print(f"   {name:<22} {value:.6g} {rows[name].unit:<6} "
              f"[{rows[name].layer}]"
              f"{'  exact' if name in names.EXACT else ''}")
    layers = report["layer_report"]
    for layer, row in sorted(layers["layers"].items(),
                             key=lambda item: -item[1]["share"]):
        self_ms = row.get("median_self_ms")
        per_query = "" if self_ms is None \
            else f"  median self {self_ms:.4g} ms per query"
        print(f"   layer {layer:<18} {row['share']:6.1%} of traced time"
              f"{per_query}")
    print(f"   top two layers: {', '.join(layers['top_layers'])}")
    if "unattributed_share" in layers:
        print(f"   layer medians sum to {1 - layers['unattributed_share']:.1%}"
              f" of the {layers['median_query_ms']:.4g} ms median query")


def driver_line(report: dict, traced: bool) -> str:
    """The one-object last line an outside driver parses."""
    if traced:
        measured = report["per_layer"]
        metrics = {row.name: {"value": measured.get(row.name, 0),
                              "unit": row.unit}
                   for row in names.PER_LAYER}
    else:
        metrics = {row.name: {"value": report["end_to_end"][row.name],
                              "unit": row.unit}
                   for row in names.END_TO_END if row.everywhere}
    return json.dumps({"correct": report["failed"] == 0,
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def stamp(args) -> dict:
    """Where and on what a result was measured."""
    commit = "unknown"
    if (ROOT / ".git").exists():    # an exported checkout has no history
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "seed": args.seed, "min_seconds": args.seconds,
            "quick": args.quick, "commit": commit}


def compare_sets(sets: list[dict[str, dict]]) -> tuple[dict, bool]:
    """Median, range and spread of every metric over whole sets, and
    whether each spread stays within the metric's bound."""
    summary: dict = {}
    agreed = True
    for name in sets[0]:
        summary[name] = {}
        for row in names.END_TO_END:
            values = [one[name]["end_to_end"][row.name] for one in sets]
            if any(value is None for value in values):
                summary[name][row.name] = None
                continue
            middle = statistics.median(values)
            spread = (max(values) - min(values)) / middle if middle else \
                float(max(values) > 0)
            within = spread <= row.bound
            agreed = agreed and within
            summary[name][row.name] = {
                "unit": row.unit, "values": values, "median": middle,
                "min": min(values), "max": max(values),
                "spread": spread, "bound": row.bound, "within": within}
    return summary, agreed


def print_comparison(summary: dict) -> None:
    for name, rows in summary.items():
        print(f"== {name}")
        for metric, row in rows.items():
            if row is None:
                print(f"   {metric:<18} null")
                continue
            print(f"   {metric:<18} median {row['median']:.6g} "
                  f"{row['unit']}  range {row['min']:.6g}-{row['max']:.6g}"
                  f"  spread {row['spread']:.3f} / bound {row['bound']}"
                  f"{'' if row['within'] else '   OUT OF BOUND'}")


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload by name")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default "
                        f"{MIN_SECONDS:g}; min_ops scale with it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics, span file")
    parser.add_argument("--quick", action="store_true",
                        help="2 s per workload, min_ops / 10, gates off")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N whole sets and compare them")
    parser.add_argument("--check", action="store_true",
                        help="with --repeat: fail if two sets differ by "
                        "more than a metric's bound")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full result as JSON")
    parser.add_argument("--selftest", action="store_true",
                        help="check the suite's own rules; no servers")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else MIN_SECONDS
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.selftest:
        from benchmarks.suite.selftest import run
        return run()
    from benchmarks.suite.workloads import workloads

    selected = list(workloads())
    if args.workload is not None and args.workload not in selected:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(selected)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result: dict = {"stamp": stamp(args)}

    if args.repeat > 1:
        if args.workload is not None:
            selected = [args.workload]
        sets = [run_set(selected, args, traced=False)
                for _ in range(args.repeat)]
        failed = sum(report["failed"] for one in sets
                     for report in one.values())
        summary, agreed = compare_sets(sets)
        print_comparison(summary)
        result.update(sets=args.repeat, workloads=summary)
        if args.check and not args.quick and not agreed:
            print("FAILED: two sets differ by more than a bound")
            failed += 1
        last_line = json.dumps({"correct": failed == 0, "agreed": agreed})
    elif args.workload is not None:
        report = run_one(args)
        failed = report["failed"]
        result.update(report)
        last_line = driver_line(report, bool(args.trace))
    else:
        runs = [run_set(selected, args, traced=False)]
        if args.trace:
            runs.append(run_set(selected, args, traced=True))
            for name in selected:
                share = 1.0 - (
                    runs[1][name]["end_to_end"]["throughput_ops_s"]
                    / runs[0][name]["end_to_end"]["throughput_ops_s"])
                runs[1][name]["trace_overhead_share"] = share
                print(f"{name}: trace_overhead_share {share:.3f} "
                      "(1 - traced / untraced throughput_ops_s)")
        result["untraced"] = runs[0]
        result["traced"] = runs[1] if args.trace else None
        reports = [report for one in runs for report in one.values()]
        failed = sum(report["failed"] for report in reports)
        last_line = json.dumps({
            "correct": failed == 0, "failed": failed,
            "attempted": sum(report["attempted"] for report in reports)})
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2) + "\n")
    print(last_line)
    return 1 if failed else 0
