"""Batched bulk loading, measured.

The per-pair ``insert`` path validates one atom pair per call;
``append_many`` validates whole columns through the ADTs' C-speed
``coerce_many`` and extends the packed arrays once.  The acceptance bar
is a ≥ 5× speedup.

The scoring kernels themselves have no scalar twin in production to be
timed against: ``tests/kernels/topn_oracle.py`` holds the per-posting
loops as the oracle the parity suites compare them with.

Writes ``BENCH_kernels.json`` next to the other ``BENCH_*`` artifacts.
"""

import json
import statistics
import time
from pathlib import Path

from repro.monetdb.atoms import Oid
from repro.monetdb.bat import BAT

BULK_PAIRS = 120_000
REPORT = Path(__file__).parent / "BENCH_kernels.json"


def _median_ms(fn, rounds):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _bulkload_section():
    heads = [Oid(i) for i in range(BULK_PAIRS)]
    tails = list(range(BULK_PAIRS))

    def per_pair():
        bat = BAT("oid", "int")
        for head, tail in zip(heads, tails):
            bat.insert(head, tail)
        return bat

    def batched():
        bat = BAT("oid", "int")
        bat.append_many(heads, tails)
        return bat

    legacy_ms = _median_ms(per_pair, rounds=3)
    batch_ms = _median_ms(batched, rounds=3)
    assert batched().tail == per_pair().tail
    return {
        "pairs": BULK_PAIRS,
        "per_pair_insert_ms": round(legacy_ms, 3),
        "append_many_ms": round(batch_ms, 3),
        "speedup": round(legacy_ms / batch_ms, 2),
    }


def test_bulkload():
    bulkload = _bulkload_section()
    report = {
        "version": 3,
        "meta": {"suite": "bench_kernels"},
        "bulkload": bulkload,
    }
    REPORT.write_text(json.dumps(report, indent=2, sort_keys=True))

    assert bulkload["speedup"] >= 5.0, (
        f"batched bulkload only {bulkload['speedup']}x over per-pair "
        f"inserts (bar: 5x)")
