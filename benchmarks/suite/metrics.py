"""Every metric name the suite prints, with unit, direction and bound.

These names are fixed: later issues quote them.  ``BENCHMARK.json`` at
the repository root repeats the rows an outside driver needs (the
end-to-end metrics every workload reports, and all per-layer ones);
``--selftest`` checks the two agree.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share by which a later change may worsen the median before it
    #: counts as a regression (``failed_share``: any rise at all)
    bound: float
    #: reported by every workload, so an outside driver can gate on it
    everywhere: bool
    meaning: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, True,
             "corpus generated -> index/server/workers built -> first "
             "correct answer; median of the set-ups made in one run"),
    EndToEnd("throughput_ops_s", "ops/s", "higher", 0.25, True,
             "completed operations / measured wall time"),
    EndToEnd("p50_ms", "ms", "lower", 0.25, True,
             "median latency of query operations"),
    EndToEnd("p95_ms", "ms", "lower", 0.25, False,
             "95th percentile of query latency; null under 200 samples"),
    EndToEnd("write_p50_ms", "ms", "lower", 0.25, False,
             "median acknowledged-write latency (live-update)"),
    EndToEnd("visible_p50_ms", "ms", "lower", 0.25, False,
             "median latency of the first query after a write, which "
             "must observe that write (live-update)"),
    EndToEnd("bytes_per_doc", "B/doc", "lower", 0.01, False,
             "snapshot + WAL tail + offline artifact bytes / documents "
             "(cold-start)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15, True,
             "ru_maxrss of the benchmark process, plus its largest "
             "child on cluster-process"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, False,
             "(errors + refusals + wrong answers) / attempted"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    #: the end-to-end metric and workload this number is predicted to
    #: move, written down before anything was measured
    moves: str


PER_LAYER = (
    PerLayer("httpd_self_ms", "ms", "lower", "service.httpd",
             "p50_ms, throughput_ops_s on http-hot; nothing on "
             "inproc-cold"),
    PerLayer("response_bytes", "B", "lower", "service.httpd",
             "p50_ms on http-hot"),
    PerLayer("api_decode_ms", "ms", "lower", "service.api",
             "p50_ms on http-hot"),
    PerLayer("api_encode_ms", "ms", "lower", "service.api",
             "p50_ms on http-hot"),
    PerLayer("service_self_ms", "ms", "lower", "service.service",
             "p50_ms on http-hot; write_p50_ms on live-update"),
    PerLayer("queue_ms", "ms", "lower", "service.service",
             "p50_ms on http-hot"),
    PerLayer("admitted", "count", "higher", "service.service",
             "throughput_ops_s wherever a service is in the path"),
    PerLayer("shed", "count", "lower", "service.service",
             "failed_share everywhere (must stay 0)"),
    PerLayer("coalesced", "count", "higher", "service.service",
             "p50_ms on http-hot"),
    PerLayer("cache_hit_ratio", "ratio", "higher", "cache",
             "~1 on http-hot, ~0 on inproc-cold; moves http-hot only"),
    PerLayer("parse_ms", "ms", "lower", "query",
             "p50_ms, p95_ms on inproc-cold"),
    PerLayer("compile_ms", "ms", "lower", "query",
             "p50_ms, p95_ms on inproc-cold"),
    PerLayer("engine_ms", "ms", "lower", "ir",
             "p50_ms on inproc-cold"),
    PerLayer("tuples_per_query", "count", "lower", "ir",
             "p50_ms on inproc-cold and conceptual-mixed (exact count)"),
    PerLayer("rebuild_ms", "ms", "lower", "ir",
             "visible_p50_ms on live-update; setup_s everywhere"),
    PerLayer("add_ms", "ms", "lower", "ir",
             "write_p50_ms on live-update; setup_s everywhere"),
    PerLayer("remove_ms", "ms", "lower", "ir",
             "write_p50_ms on live-update"),
    PerLayer("wal_append_ms", "ms", "lower", "wal",
             "write_p50_ms on live-update"),
    PerLayer("fsyncs_per_write", "count", "lower", "wal",
             "write_p50_ms on live-update (exact count)"),
    PerLayer("wal_bytes_per_write", "B", "lower", "wal",
             "write_p50_ms on live-update (exact count)"),
    PerLayer("fanout_overhead_ms", "ms", "lower", "cluster",
             "p50_ms on cluster-process"),
    PerLayer("rpc_ms", "ms", "lower", "remote",
             "p50_ms on cluster-process"),
    PerLayer("thread_backend_ms", "ms", "lower", "cluster",
             "p50_ms on cluster-process"),
    PerLayer("max_node_tuples", "count", "lower", "cluster",
             "p50_ms on cluster-process (exact count)"),
    PerLayer("save_ms", "ms", "lower", "persistence",
             "setup_s on cold-start"),
    PerLayer("load_ms", "ms", "lower", "persistence",
             "p50_ms on cold-start"),
    PerLayer("verify_ms", "ms", "lower", "persistence",
             "p50_ms on cold-start"),
    PerLayer("replay_ms", "ms", "lower", "wal",
             "p50_ms on cold-start"),
    PerLayer("export_ms", "ms", "lower", "offline",
             "setup_s on cold-start"),
    PerLayer("static_load_ms", "ms", "lower", "offline",
             "p50_ms on cold-start"),
    PerLayer("snapshot_bytes", "B", "lower", "monetdb.persistence",
             "bytes_per_doc on cold-start (exact count)"),
    PerLayer("artifact_bytes", "B", "lower", "offline",
             "bytes_per_doc on cold-start (exact count)"),
    PerLayer("conceptual_ms", "ms", "lower", "core",
             "p50_ms on conceptual-mixed"),
    PerLayer("plan_cache_hit_ratio", "ratio", "higher", "core",
             "p50_ms on conceptual-mixed"),
    PerLayer("populate_s", "s", "lower", "core",
             "setup_s on conceptual-mixed"),
)

#: counts that must repeat bit-for-bit for a fixed seed and run shape
EXACT = ("tuples_per_query", "max_node_tuples", "fsyncs_per_write",
         "wal_bytes_per_write", "snapshot_bytes", "artifact_bytes",
         "bytes_per_doc")
