"""Durability under traffic — reads stay available during live ingest.

Three numbers characterise the write-ahead-logged service:

1. **Read availability under continuous ingest** — reader threads
   stream queries while a writer streams WAL-backed, fsync-acknowledged
   updates.  Reads must keep completing (zero errors) with bounded tail
   latency; every write must be acknowledged.
2. **Group commit** — concurrent writers share fsyncs; the benchmark
   records the append:fsync ratio the batching achieves.
3. **Crash-injection recovery** — after a barrage of concurrently
   acknowledged writes the process "dies" (nothing is closed, the
   in-memory engine is abandoned); recovery from snapshot + WAL tail
   must lose **zero** acknowledged writes, and the recovery time is
   reported.

Writes ``BENCH_live_ingest.json`` next to the other ``BENCH_*``
artifacts.
"""

import json
import threading
import time
from pathlib import Path

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.ir.engine import IrEngine
from repro.persistence import load_engine
from repro.service import SearchService, ServicePolicy
from repro.telemetry import telemetry_session
from repro.wal import WriteAheadLog
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema

from benchmarks.conftest import zipf_corpus

REPORT = Path(__file__).parent / "BENCH_live_ingest.json"

DOCUMENTS = 150
READERS = 4
WRITES = 120
CRASH_WRITERS = 4
CRASH_WRITES_EACH = 15
NO_CACHE = ExecutionPolicy(n=10, cache=False)

_report: dict = {"version": 1,
                 "meta": {"suite": "bench_live_ingest",
                          "documents": DOCUMENTS, "readers": READERS,
                          "writes": WRITES}}


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _build_ir_engine() -> IrEngine:
    engine = IrEngine(fragment_count=4)
    for url, text in zipf_corpus(DOCUMENTS, vocabulary=300,
                                 words_per_doc=240):
        engine.index(url, text)
    # publish the generation outside the timed region
    engine.search("grandslam", policy=NO_CACHE)
    return engine


def test_reads_stay_available_during_continuous_ingest(tmp_path):
    with telemetry_session() as telemetry:
        wal = WriteAheadLog(tmp_path / "wal")
        service = SearchService(
            _build_ir_engine(),
            ServicePolicy(max_inflight=READERS + 1,
                          max_queue=READERS * 8,
                          queue_timeout_ms=30000.0),
            wal=wal)
        stop = threading.Event()
        lock = threading.Lock()
        read_ms: list[float] = []
        read_errors: list[Exception] = []
        ack_ms: list[float] = []

        def reader():
            while not stop.is_set():
                started = time.perf_counter()
                try:
                    service.submit("grandslam finalist term000 term001",
                                   mode="content", policy=NO_CACHE)
                except Exception as exc:  # noqa: BLE001 - recorded
                    with lock:
                        read_errors.append(exc)
                    return
                with lock:
                    read_ms.append((time.perf_counter() - started)
                                   * 1000.0)

        readers = [threading.Thread(target=reader)
                   for _ in range(READERS)]
        for thread in readers:
            thread.start()
        try:
            for i in range(WRITES):
                started = time.perf_counter()
                service.reindex(f"http://site/live{i}",
                                f"grandslam live update {i} term00{i % 10}")
                ack_ms.append((time.perf_counter() - started) * 1000.0)
                # open-loop pacing: a continuous ingest stream, not a
                # burst — the reads below must interleave with it
                time.sleep(0.002)
        finally:
            stop.set()
            for thread in readers:
                thread.join(30.0)
        assert service.drain(5.0)
        wal.close()
        counters = telemetry.metrics.snapshot()["counters"]

    appends = sum(value for key, value in counters.items()
                  if key.startswith("wal.appends"))
    fsyncs = counters.get("wal.fsyncs", 0)
    _report["live_ingest"] = {
        "reads_completed": len(read_ms),
        "read_errors": len(read_errors),
        "read_p50_ms": round(_percentile(read_ms, 0.50), 3),
        "read_p99_ms": round(_percentile(read_ms, 0.99), 3),
        "writes_acked": len(ack_ms),
        "ack_p50_ms": round(_percentile(ack_ms, 0.50), 3),
        "ack_p99_ms": round(_percentile(ack_ms, 0.99), 3),
        "wal_appends": appends,
        "wal_fsyncs": fsyncs,
    }

    # the headline guarantees: every write acked, not one read failed
    assert read_errors == []
    assert len(ack_ms) == WRITES
    assert len(read_ms) > 0
    assert appends == WRITES
    assert 0 < fsyncs <= appends


def _crash_barrage(service, wal):
    acked: list[str] = []
    lock = threading.Lock()
    errors: list[Exception] = []
    barrier = threading.Barrier(CRASH_WRITERS)

    def writer(tag):
        try:
            barrier.wait()
            for i in range(CRASH_WRITES_EACH):
                url = f"doc:crash-{tag}-{i}"
                service.reindex(url, f"champion trophy {tag} {i}")
                with lock:
                    acked.append(url)
        except Exception as exc:  # noqa: BLE001 - recorded
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(tag,))
               for tag in range(CRASH_WRITERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert errors == []
    return acked


def test_crash_recovery_loses_no_acknowledged_write(tmp_path):
    server, _ = build_ausopen_site(players=6, articles=4, videos=2,
                                   frames_per_shot=4)
    engine = SearchEngine(australian_open_schema(), server,
                          EngineConfig(fragment_count=3))
    engine.populate()
    root, wal_root = tmp_path / "snap", tmp_path / "wal"
    wal = WriteAheadLog(wal_root)
    service = SearchService(engine, ServicePolicy(max_inflight=8,
                                                  max_queue=64,
                                                  queue_timeout_ms=30000.0),
                            wal=wal)
    service.snapshot(root)
    acked = _crash_barrage(service, wal)

    # crash: nothing is closed, only the fsynced log and the snapshot
    # survive; recovery is timed end to end (load + tail replay)
    started = time.perf_counter()
    with WriteAheadLog(wal_root) as recovery_log:
        restored = load_engine(root, australian_open_schema(), server,
                               wal=recovery_log)
    recovery_ms = (time.perf_counter() - started) * 1000.0
    wal.close()

    lost = [url for url in acked
            if restored.ir.relations.doc_oid(url) is None]
    _report["crash_recovery"] = {
        "writes_acked": len(acked),
        "writes_lost": len(lost),
        "tail_replayed": restored.wal_seq,
        "recovery_ms": round(recovery_ms, 1),
    }
    REPORT.write_text(json.dumps(_report, indent=2, sort_keys=True))

    assert lost == [], f"acknowledged writes lost in recovery: {lost}"
    assert restored.wal_seq == len(acked)
