"""E9 — shared-nothing replication: process backend vs. threads, hedging.

Two claims, measured on the same 4-node index:

1. **CPU-bound scaling.**  The thread backend runs every node's
   scoring in turn on the calling thread, in one interpreter.  The
   process backend runs every node's scoring in its own
   worker process, so on a CPU-bound workload (multi-term query over a
   large corpus with pruning disabled) its wall clock beats the thread
   backend despite paying socket RPC per node.  Rankings stay
   bit-identical; that is asserted, not assumed.  The speedup needs
   a core per node: with fewer cores than nodes the workers share them
   and the RPC overhead can outweigh the parallelism, so the scaling
   assertion is enforced only when ``os.cpu_count() >= CLUSTER_SIZE``
   — the measured ratio and the core count land in the report either
   way.

2. **Tail latency under stragglers.**  With one replica of each node
   delayed (``set_fault``), the unhedged p99 absorbs the full injected
   delay whenever round-robin routing picks the slow replica; with
   ``hedge_after_ms`` the re-issued request wins the race and the p99
   collapses — the acceptance bar is a ≥ 2× p99 cut.

Writes ``BENCH_replication.json`` next to the other ``BENCH_*``
artifacts.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.core.config import ExecutionPolicy
from repro.ir.distributed import DistributedIndex
from repro.monetdb.server import Cluster

from benchmarks.conftest import zipf_corpus

# pruning disabled + high-df terms: every node scores every posting of
# every query term, which is the CPU-bound regime threads cannot scale
QUERY = "term000 term001 term002 term003 grandslam finalist"
CLUSTER_SIZE = 4
DOCUMENTS = 2400
ROUNDS = 15
TAIL_ROUNDS = 40
STRAGGLER_DELAY_MS = 120.0
HEDGE_AFTER_MS = 15.0
REPORT = Path(__file__).parent / "BENCH_replication.json"


def _build():
    index = DistributedIndex(Cluster(CLUSTER_SIZE), fragment_count=4)
    index.add_documents(zipf_corpus(DOCUMENTS, vocabulary=200,
                                    words_per_doc=80, seed=29))
    return index


def _samples_ms(index, policy, rounds):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        index.query(QUERY, policy=policy)
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


def _percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       int(fraction * (len(ordered) - 1) + 0.5))]


def test_process_backend_scales_and_hedging_cuts_p99(tmp_path):
    index = _build()
    index.start_remote(replication_factor=2,
                       snapshot_root=tmp_path / "snapshots")
    try:
        # cache=False throughout: repeated identical queries must
        # measure execution, not the query cache
        thread = ExecutionPolicy(n=10, prune=False, cache=False)
        process = thread.replace(backend="process")

        thread_result = index.query(QUERY, policy=thread)
        process_result = index.query(QUERY, policy=process)
        assert process_result.ranking == thread_result.ranking
        assert not process_result.degraded

        thread_ms = statistics.median(_samples_ms(index, thread, ROUNDS))
        process_ms = statistics.median(_samples_ms(index, process, ROUNDS))

        # tail latency: one slow replica per node, with and without
        # hedging (the unhedged run eats the delay whenever round-robin
        # routing lands on the straggler)
        for node in index.nodes:
            index.remote.set_fault(node, STRAGGLER_DELAY_MS, slot=0)
        unhedged = _samples_ms(index, process, TAIL_ROUNDS)
        hedged = _samples_ms(
            index, process.replace(hedge_after_ms=HEDGE_AFTER_MS),
            TAIL_ROUNDS)
        for node in index.nodes:
            index.remote.set_fault(node, 0.0, slot=0)

        enforce_scaling = (os.cpu_count() or 1) >= CLUSTER_SIZE
        report = {
            "version": 1,
            "meta": {
                "suite": "bench_replication",
                "cluster_size": CLUSTER_SIZE,
                "cpu_count": os.cpu_count(),
                "documents": DOCUMENTS,
                "replication_factor": 2,
                "rounds": ROUNDS,
                "tail_rounds": TAIL_ROUNDS,
                "straggler_delay_ms": STRAGGLER_DELAY_MS,
                "hedge_after_ms": HEDGE_AFTER_MS,
                "query": QUERY,
            },
            "scaling": {
                "thread_backend_ms": round(thread_ms, 3),
                "process_backend_ms": round(process_ms, 3),
                "speedup": round(thread_ms / process_ms, 3),
                "speedup_enforced": enforce_scaling,
                "rankings_identical": process_result.ranking
                == thread_result.ranking,
            },
            "tail_latency": {
                "unhedged": {
                    "backend": "process",
                    "p50_ms": round(_percentile(unhedged, 0.50), 3),
                    "p99_ms": round(_percentile(unhedged, 0.99), 3),
                },
                "hedged": {
                    "backend": "process",
                    "p50_ms": round(_percentile(hedged, 0.50), 3),
                    "p99_ms": round(_percentile(hedged, 0.99), 3),
                },
                "p99_cut": round(_percentile(unhedged, 0.99)
                                 / _percentile(hedged, 0.99), 3),
            },
        }
        REPORT.write_text(json.dumps(report, indent=2, sort_keys=True))

        if enforce_scaling:
            assert process_ms < thread_ms, (
                f"process backend ({process_ms:.2f}ms) should beat the "
                f"GIL-bound thread backend ({thread_ms:.2f}ms) on the "
                f"CPU-bound workload")
        assert _percentile(unhedged, 0.99) \
            >= 2.0 * _percentile(hedged, 0.99), (
            "hedging should cut the straggler p99 at least 2x: "
            f"unhedged {_percentile(unhedged, 0.99):.1f}ms vs hedged "
            f"{_percentile(hedged, 0.99):.1f}ms")
    finally:
        index.stop_remote()
