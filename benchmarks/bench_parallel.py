"""E8 — parallel fan-out: the executor's wall-clock win over the
sequential node visit, plus graceful degradation under a node fault.

Each node here carries a simulated network round-trip
(``FaultInjector.delay_all``), the regime the paper's "several database
servers ... available hosts" implies.  The executor's loop turns each
delay into a timer, so at full width the k nodes' round-trips overlap
and the fan-out pays ~one, while ``max_workers=1`` pays k; the scans
themselves run one after another on the calling thread either way.
The same run demonstrates the partial-result policy: with one
node fault-injected past its deadline, ``on_failure="degrade"``
returns the surviving nodes' merged ranking, records the failure, and
per-node accounting stays exactly equal to the sequential visit.

Writes ``BENCH_parallel.json`` next to the other ``BENCH_*`` artifacts.
"""

import json
import statistics
import time
from pathlib import Path

from repro.cluster import ExecutionPolicy, FaultInjector
from repro.ir.distributed import DistributedIndex
from repro.monetdb.server import Cluster
from repro.telemetry.runtime import get_telemetry

from benchmarks.conftest import zipf_corpus

QUERY = "grandslam finalist term005"
CLUSTER_SIZE = 4
NODE_LATENCY_MS = 5.0
ROUNDS = 11
REPORT = Path(__file__).parent / "BENCH_parallel.json"


def _build(faults):
    index = DistributedIndex(Cluster(CLUSTER_SIZE), fragment_count=4,
                             fault_injector=faults)
    index.add_documents(zipf_corpus(240, seed=21))
    return index


def _median_ms(index, policy, rounds=ROUNDS):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        index.query(QUERY, policy=policy)
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def test_parallel_beats_sequential_wall_clock():
    faults = FaultInjector().delay_all(NODE_LATENCY_MS)
    index = _build(faults)

    # cache=False throughout: this benchmark measures execution wall
    # clock, and repeated identical queries would otherwise be served
    # from the query cache (see bench_cache for that win)
    sequential = ExecutionPolicy(n=10, max_workers=1, cache=False)
    parallel = ExecutionPolicy(n=10, cache=False)  # every node in flight
    sequential_ms = _median_ms(index, sequential)
    parallel_ms = _median_ms(index, parallel)

    # correctness and accounting are identical on both paths
    seq_result = index.query(QUERY, policy=sequential)
    par_result = index.query(QUERY, policy=parallel)
    central = index.exact_central_ranking(QUERY, n=10)
    assert [doc for doc, _ in par_result.ranking] \
        == [doc for doc, _ in central]
    assert par_result.ranking == seq_result.ranking
    assert par_result.tuples_read_per_node() \
        == seq_result.tuples_read_per_node()

    # graceful degradation: node0 sleeps past its deadline
    metrics = get_telemetry().metrics
    failures_before = metrics.sum_counters("ir.node_failures")
    faults.delay("node0", 1000.0)
    degraded = index.query(QUERY, policy=ExecutionPolicy(
        n=10, node_deadline_ms=60.0, on_failure="degrade", cache=False))
    faults.delay("node0", NODE_LATENCY_MS)
    assert degraded.degraded
    assert sorted(degraded.failed_nodes) == ["node0"]
    assert degraded.ranking  # the surviving nodes still answer
    node_failures = metrics.sum_counters("ir.node_failures") \
        - failures_before

    report = {
        "version": 1,
        "meta": {
            "suite": "bench_parallel",
            # which execution backend produced these numbers — this
            # suite measures the in-process thread fan-out; the process
            # backend's numbers live in BENCH_replication.json
            "backend": sequential.backend,
            "cluster_size": CLUSTER_SIZE,
            "node_latency_ms": NODE_LATENCY_MS,
            "rounds": ROUNDS,
            "query": QUERY,
        },
        "sequential_ms": round(sequential_ms, 3),
        "parallel_ms": round(parallel_ms, 3),
        "speedup": round(sequential_ms / parallel_ms, 3),
        "per_node_tuples": par_result.tuples_read_per_node(),
        "accounting_equal": par_result.tuples_read_per_node()
        == seq_result.tuples_read_per_node(),
        "degraded_run": {
            **degraded.to_dict(),
            "node_failures_counter": node_failures,
        },
    }
    REPORT.write_text(json.dumps(report, indent=2, sort_keys=True))

    assert node_failures == 1
    assert parallel_ms < sequential_ms, (
        f"parallel ({parallel_ms:.2f}ms) should beat sequential "
        f"({sequential_ms:.2f}ms) with {NODE_LATENCY_MS}ms node latency")
