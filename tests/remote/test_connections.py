"""Kept-alive worker connections and the thread-free fan-out.

A pooled connection is only safe if no reply ever reaches the wrong
request: a cancelled hedge loser or a timed-out attempt must never go
back to the pool, and a connection the worker dropped while idle must
cost a re-send, not the replica's health.  The fan-out itself runs on
the calling thread, so a query constructs no thread at all.
"""

import select
import threading
import time

import pytest

from repro.remote.client import WorkerClient
from repro.remote.executor import RemoteCall, RemoteExecutor
from repro.remote.worker import NodeWorker
from repro.telemetry import telemetry_session

from tests.remote.conftest import build_index, process_policy

pytestmark = pytest.mark.remote

QUERIES = ["w0 w3", "w10 w2 w5", "w1", "w7 w0 trophy", "trophy melbourne"]


def thread_policy(**overrides):
    return process_policy(backend="thread", **overrides)


def assert_next_queries_match(index, count=20):
    for number in range(count):
        query = QUERIES[number % len(QUERIES)]
        process = index.query(query, process_policy())
        assert not process.degraded, query
        assert process.ranking == \
            index.query(query, thread_policy()).ranking, query


def all_healthy(index):
    return all(handle["healthy"]
               for handles in index.remote.status()["nodes"].values()
               for handle in handles)


class _FixedRoute:
    """A replica set stand-in that routes to the given handles as they
    are, dead or alive, and records the failures it is told of."""

    def __init__(self, handles):
        self.handles = handles
        self.failed = []

    def route(self, node):
        return list(self.handles)

    def note_failure(self, handle):
        self.failed.append(handle)


class TestConnectionReuse:
    def test_queries_open_one_connection_per_replica(self, tmp_path):
        index = build_index(cluster_size=3)
        with telemetry_session() as telemetry:
            index.start_remote(replication_factor=2,
                               snapshot_root=tmp_path / "snapshots")
            try:
                for number in range(50):
                    index.query(QUERIES[number % len(QUERIES)],
                                process_policy())
                counters = telemetry.metrics.snapshot()["counters"]
            finally:
                index.stop_remote()
        # 6 bootstraps + 50 queries x 3 nodes, over 6 connections
        assert counters["remote.rpcs"] == 6 + 50 * 3
        assert counters["remote.connects"] <= 6

    def test_worker_dropping_an_idle_connection_is_not_a_failure(
            self, replicated_index):
        # a malformed frame makes the worker drop the connection, as
        # its idle timeout would: every pooled connection is now stale
        for handles in replicated_index.remote.replicas.values():
            for handle in handles:
                for sock in handle.client._idle:
                    sock.sendall(b"\xff\xff\xff\xff")
                    assert select.select([sock], [], [], 5.0)[0]
        expected = replicated_index.query("trophy melbourne",
                                          thread_policy())
        with telemetry_session() as telemetry:
            result = replicated_index.query("trophy melbourne",
                                            process_policy())
            pings = [handle.client.ping()["pid"]
                     for handle in replicated_index.remote.replicas["node0"]]
            counters = telemetry.metrics.snapshot()["counters"]
        assert result.ranking == expected.ranking
        assert not result.degraded
        assert pings == [handle.process.pid for handle
                         in replicated_index.remote.replicas["node0"]]
        assert counters.get("remote.replica_unhealthy", 0) == 0
        assert counters.get("remote.failovers", 0) == 0
        assert counters["remote.connects"] >= 4  # 3 re-sends + a ping
        assert all_healthy(replicated_index)


class TestNoCrossTalk:
    def test_cancelled_hedge_loser_is_never_reused(self, replicated_index):
        replicated_index.remote.set_fault("node0", 300.0, slot=0)
        with telemetry_session() as telemetry:
            hedged = replicated_index.query(
                "trophy melbourne", process_policy(hedge_after_ms=20.0))
            counters = telemetry.metrics.snapshot()["counters"]
        replicated_index.remote.set_fault("node0", 0.0, slot=0)
        assert not hedged.degraded
        assert counters.get("remote.hedges_won", 0) >= 1
        assert_next_queries_match(replicated_index)
        assert all_healthy(replicated_index)

    def test_timed_out_attempt_is_never_reused(self, replicated_index):
        for slot in (0, 1):
            replicated_index.remote.set_fault("node0", 300.0, slot=slot)
        degraded = replicated_index.query(
            "trophy melbourne",
            process_policy(on_failure="degrade", node_deadline_ms=100.0))
        for slot in (0, 1):
            replicated_index.remote.set_fault("node0", 0.0, slot=slot)
        assert degraded.degraded
        assert "node0" in degraded.failed_nodes
        assert_next_queries_match(replicated_index)
        # slowness is not a failure: nobody was marked unhealthy
        assert all_healthy(replicated_index)


class TestFailover:
    def test_killed_worker_fails_over_on_transport_error(
            self, replicated_index):
        remote = replicated_index.remote
        dead, live = remote.replicas["node0"]
        remote.kill_replica("node0", slot=0)  # its pooled socket ends
        call = {"node0": RemoteCall(node="node0", op="ping")}
        route = _FixedRoute([dead, live])
        with telemetry_session() as telemetry:
            outcome = RemoteExecutor(route, process_policy()).run(
                call)["node0"]
            counters = telemetry.metrics.snapshot()["counters"]
        assert outcome.ok
        assert outcome.value["pid"] == live.process.pid
        assert route.failed == [dead]
        assert counters.get("remote.failovers", 0) == 1

        alone = _FixedRoute([dead])
        outcome = RemoteExecutor(alone, process_policy()).run(call)["node0"]
        assert not outcome.ok
        assert outcome.error.startswith("RemoteTransportError")
        assert alone.failed == [dead]


class TestNoThreads:
    def test_fan_out_constructs_no_thread(self, replicated_index,
                                          monkeypatch):
        replicated_index.remote.set_fault("node1", 30.0, slot=0)
        constructed = []
        init = threading.Thread.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(kwargs.get("name"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "__init__", counting_init)
        with telemetry_session() as telemetry:
            for number in range(20):
                replicated_index.query(QUERIES[number % len(QUERIES)],
                                       process_policy(hedge_after_ms=5.0))
            counters = telemetry.metrics.snapshot()["counters"]
        monkeypatch.undo()
        replicated_index.remote.set_fault("node1", 0.0, slot=0)
        assert constructed == []
        assert counters.get("remote.hedges_issued", 0) >= 1


class TestLifecycle:
    def test_worker_close_wakes_idle_kept_alive_connections(self):
        worker = NodeWorker(name="in-process")
        serving = worker.serve_in_thread()
        client = WorkerClient(worker.host, worker.port, name="in-process")
        try:
            client.ping()  # leaves one idle connection in the pool
        finally:
            started = time.monotonic()
            worker.close()
            serving.join(timeout=10.0)
            elapsed = time.monotonic() - started
            client.close()
        assert not serving.is_alive()
        assert elapsed < 1.0, f"worker close took {elapsed:.2f}s"

    def test_stop_remote_is_prompt(self, tmp_path):
        index = build_index(cluster_size=3)
        index.start_remote(replication_factor=2,
                           snapshot_root=tmp_path / "snapshots")
        try:
            for query in QUERIES:
                index.query(query, process_policy())
        finally:
            started = time.monotonic()
            index.stop_remote()
            elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"stop_remote took {elapsed:.2f}s"
