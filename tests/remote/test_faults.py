"""Fault injection: crashes, stragglers, timeouts, hedges, bootstrap.

Every test runs under the autouse thread- and process-leak fixtures,
so a hedge loser or a failed-over attempt that outlives its query — or
a replacement worker that never gets torn down — fails the test even
when the assertions below pass.
"""

import time

import pytest

from repro.core.config import ExecutionPolicy
from repro.persistence import IR_PART
from repro.service.api import policy_from_dict, policy_to_dict
from repro.telemetry import telemetry_session

from tests.remote.conftest import process_policy

pytestmark = pytest.mark.remote


def thread_policy(**overrides):
    return process_policy(backend="thread", **overrides)


class TestCrashFailover:
    def test_worker_crash_mid_run_fails_over(self, replicated_index):
        """Killing one replica must not even degrade the response."""
        expected = replicated_index.query("trophy melbourne",
                                          thread_policy())
        replicated_index.remote.kill_replica("node0", slot=0)
        with telemetry_session() as telemetry:
            result = replicated_index.query("trophy melbourne",
                                            process_policy())
            assert result.ranking == expected.ranking
            assert not result.degraded
            assert not result.failed_nodes
            # the query's tail healed the cluster: a replacement worker
            # was spawned and bootstrapped from the newest snapshot
            counters = telemetry.metrics.snapshot()["counters"]
            assert counters.get("remote.repairs", 0) >= 1
            assert counters.get("remote.bootstraps", 0) >= 1
        status = replicated_index.remote.status()
        assert all(handle["healthy"]
                   for handles in status["nodes"].values()
                   for handle in handles)

    def test_whole_node_down_degrades_then_heals(self, replicated_index):
        """With every replica of a node dead the query degrades —
        never errors — and the next query sees a repaired cluster."""
        replicated_index.remote.kill_replica("node1", slot=0)
        replicated_index.remote.kill_replica("node1", slot=1)
        degraded = replicated_index.query(
            "trophy melbourne", process_policy(on_failure="degrade"))
        assert degraded.degraded
        assert "node1" in degraded.failed_nodes
        assert degraded.ranking  # survivors still answered
        # the degraded query's tail repaired both replicas
        healed = replicated_index.query("trophy melbourne",
                                        process_policy())
        assert not healed.degraded
        expected = replicated_index.query("trophy melbourne",
                                          thread_policy())
        assert healed.ranking == expected.ranking

    def test_raise_policy_propagates_whole_node_loss(self, replicated_index):
        from repro.errors import ClusterExecutionError

        replicated_index.remote.kill_replica("node2", slot=0)
        replicated_index.remote.kill_replica("node2", slot=1)
        with pytest.raises(ClusterExecutionError):
            replicated_index.query("trophy melbourne", process_policy())
        # the raising query aborts before its repair tail; a degraded
        # query runs to completion and heals, after which reads are clean
        degraded = replicated_index.query(
            "trophy melbourne", process_policy(on_failure="degrade"))
        assert degraded.degraded
        healed = replicated_index.query("trophy melbourne",
                                        process_policy())
        assert not healed.degraded


class TestDeadlines:
    def test_slow_node_times_out_to_degraded(self, replicated_index):
        """A node whose every replica is stuck degrades under deadline."""
        replicated_index.remote.set_fault("node0", 800.0, slot=0)
        replicated_index.remote.set_fault("node0", 800.0, slot=1)
        result = replicated_index.query(
            "trophy melbourne",
            process_policy(on_failure="degrade", node_deadline_ms=200.0))
        assert result.degraded
        assert "node0" in result.failed_nodes
        replicated_index.remote.set_fault("node0", 0.0, slot=0)
        replicated_index.remote.set_fault("node0", 0.0, slot=1)
        recovered = replicated_index.query("trophy melbourne",
                                           process_policy())
        assert not recovered.degraded


class TestHedging:
    def test_hedge_masks_straggler_replica(self, replicated_index):
        """One slow replica per node: the hedge answers within its
        budget instead of waiting out the injected 800ms."""
        expected = replicated_index.query("trophy melbourne",
                                          thread_policy())
        for node in replicated_index.nodes:
            replicated_index.remote.set_fault(node, 800.0, slot=0)
        with telemetry_session() as telemetry:
            started = time.monotonic()
            result = replicated_index.query(
                "trophy melbourne", process_policy(hedge_after_ms=40.0))
            elapsed = time.monotonic() - started
            counters = telemetry.metrics.snapshot()["counters"]
        assert result.ranking == expected.ranking
        assert not result.degraded
        assert counters.get("remote.hedges_issued", 0) >= 1
        assert counters.get("remote.hedges_won", 0) >= 1
        # well under the injected delay: the straggler lost the race
        assert elapsed < 0.6, f"hedge did not mask the straggler: {elapsed}"
        for node in replicated_index.nodes:
            replicated_index.remote.set_fault(node, 0.0, slot=0)

    def test_hedge_loser_is_cancelled_cleanly(self, replicated_index):
        """After a hedged win the loser's thread and socket are gone
        (the autouse fixtures assert the leak half) and the replica
        stays healthy — slowness is not a failure."""
        replicated_index.remote.set_fault("node0", 500.0, slot=0)
        replicated_index.query("trophy melbourne",
                               process_policy(hedge_after_ms=30.0))
        replicated_index.remote.set_fault("node0", 0.0, slot=0)
        status = replicated_index.remote.status()
        assert all(handle["healthy"]
                   for handle in status["nodes"]["node0"])
        follow_up = replicated_index.query("w0 w3", process_policy())
        expected = replicated_index.query("w0 w3", thread_policy())
        assert follow_up.ranking == expected.ranking


class TestBootstrapCatchUp:
    def test_replacement_replays_oplog_past_snapshot(self, replicated_index):
        """Writes land in the op-log; a replacement worker bootstraps
        from the start-time snapshot and catches up by replay."""
        replicated_index.add_document("http://site/late1", "trophy w0 w1")
        replicated_index.add_document("http://site/late2",
                                      "melbourne w2 trophy")
        replicated_index.refresh()
        node = replicated_index.cluster.place("http://site/late1").name
        replicated_index.remote.kill_replica(node, slot=0)
        with telemetry_session() as telemetry:
            replaced = replicated_index.remote.repair()
            counters = telemetry.metrics.snapshot()["counters"]
        assert replaced == 1
        assert counters.get("remote.bootstraps", 0) >= 1
        status = replicated_index.remote.status()
        expected_generation = replicated_index.nodes[node].generation
        for handle in status["nodes"][node]:
            assert handle["healthy"]
            assert handle["generation"] == expected_generation
        thread = replicated_index.query("trophy melbourne",
                                        thread_policy())
        process = replicated_index.query("trophy melbourne",
                                         process_policy())
        assert process.ranking == thread.ranking

    def test_a_corrupt_newest_checkpoint_is_skipped(self, replicated_index):
        """A bit flip in the newest node object fails its stamps, so no
        worker ever loads it; the replacement still comes up equal to
        the thread backend."""
        replicated_index.add_document("http://site/late3", "trophy w4 w5")
        replicated_index.refresh()
        node = replicated_index.cluster.place("http://site/late3").name
        path, _ = replicated_index.remote.checkpoint(node)
        part = path / IR_PART
        data = bytearray(part.read_bytes())
        data[len(data) // 2] ^= 0x40
        part.write_bytes(bytes(data))
        replicated_index.remote.kill_replica(node, slot=0)
        with telemetry_session() as telemetry:
            assert replicated_index.remote.repair() == 1
            counters = telemetry.metrics.snapshot()["counters"]
        assert counters["remote.checkpoint_corruptions"] >= 1
        for query in ("trophy melbourne", "w4 w5"):
            thread = replicated_index.query(query, thread_policy())
            process = replicated_index.query(query, process_policy())
            assert process.ranking == thread.ranking


class TestPolicyWire:
    def test_remote_knobs_round_trip(self):
        policy = ExecutionPolicy(n=7, backend="process",
                                 hedge_after_ms=25.0, cache=False)
        assert policy_from_dict(policy_to_dict(policy)) == policy

    def test_process_backend_without_remote_is_query_error(self):
        from repro.errors import QueryError
        from tests.remote.conftest import build_index

        index = build_index(cluster_size=2, documents=12)
        with pytest.raises(QueryError, match="start_remote"):
            index.query("trophy", process_policy())
