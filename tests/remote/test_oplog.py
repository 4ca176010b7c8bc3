"""Op-log hygiene: the write fan-out, checkpoint-driven truncation and
online expansion."""

from types import SimpleNamespace

import pytest

from repro.errors import RemoteError, RemoteTransportError
from repro.remote.replicas import ReplicaSet, WorkerHandle
from repro.telemetry import telemetry_session

from tests.remote.conftest import process_policy

pytestmark = pytest.mark.remote


def _oplog_sizes(index):
    return index.remote.status()["oplog"]


class _Running:
    """A worker process that is alive."""

    pid = 0

    def poll(self):
        return None


class _Client:
    """A worker client that records its calls and refuses when told."""

    port = 0

    def __init__(self, name, generation, refuse=False):
        self.name = name
        self.generation = generation
        self.refuse = refuse
        self.calls = []

    def call(self, op, params=None, *, deadline_s=None):
        self.calls.append(op)
        if self.refuse:
            raise RemoteTransportError(f"{self.name} is wedged")
        return {"generation": self.generation}


class TestWriteFanOut:
    def test_each_usable_replica_gets_the_write_once(self, tmp_path):
        local = SimpleNamespace(generation=3)
        replicas = ReplicaSet({"node0": local}, snapshot_root=tmp_path)
        clients = [_Client("node0/r0", 3), _Client("node0/r1", 3),
                   _Client("node0/r2", 3, refuse=True)]
        handles = [WorkerHandle("node0", slot, _Running(), client)
                   for slot, client in enumerate(clients)]
        replicas.replicas["node0"] = handles
        replicas.note_failure(handles[1])  # written off by an earlier read
        replicas.apply_write("node0", "remove_document", {"url": "u"})
        assert [client.calls for client in clients] \
            == [["remove_document"], [], ["remove_document"]]
        assert [handle.healthy for handle in handles] == [True, False, False]
        assert replicas.status()["oplog"] == {"node0": 1}


class TestOplogTruncation:
    def test_checkpoint_truncates_the_covered_prefix(self,
                                                     replicated_index):
        """The regression this file exists for: before truncation the
        per-node op-log grew without bound across checkpoints."""
        replicated_index.add_document("http://site/t1", "trophy w0 w1")
        replicated_index.add_document("http://site/t2", "melbourne w2")
        replicated_index.refresh()
        node = replicated_index.cluster.place("http://site/t1").name
        assert _oplog_sizes(replicated_index)[node] > 0
        with telemetry_session() as telemetry:
            _, manifest = replicated_index.remote.checkpoint(node)
            counters = telemetry.metrics.snapshot()["counters"]
        assert _oplog_sizes(replicated_index)[node] == 0
        assert counters[f"remote.oplog_truncated{{node={node}}}"] > 0
        assert manifest.kind == "node" and manifest.seq > 0

    def test_entries_past_the_checkpoint_survive(self, replicated_index):
        replicated_index.add_document("http://site/t1", "trophy w0 w1")
        replicated_index.refresh()
        node = replicated_index.cluster.place("http://site/t1").name
        replicated_index.remote.checkpoint(node)
        # a write after the checkpoint is *not* covered: it must stay
        replicated_index.add_document("http://site/t3", "w3 w4 trophy")
        late_node = replicated_index.cluster.place("http://site/t3").name
        assert _oplog_sizes(replicated_index)[late_node] > 0

    def test_repair_still_catches_up_after_truncation(self,
                                                      replicated_index):
        """Kill-and-repair works across a truncation boundary: the
        replacement bootstraps from the newest checkpoint, whose seq
        matches the truncated log's base."""
        replicated_index.add_document("http://site/t1", "trophy w0 w1")
        replicated_index.refresh()
        node = replicated_index.cluster.place("http://site/t1").name
        replicated_index.remote.checkpoint(node)
        replicated_index.add_document("http://site/t4", "melbourne w5")
        replicated_index.refresh()
        replicated_index.remote.kill_replica(node, slot=0)
        assert replicated_index.remote.repair() == 1
        thread = replicated_index.query(
            "trophy melbourne", process_policy(backend="thread"))
        process = replicated_index.query("trophy melbourne",
                                         process_policy())
        assert process.ranking == thread.ranking


class TestExpand:
    def test_expand_adds_a_caught_up_replica_online(self,
                                                    replicated_index):
        """Rebalance bootstrap: the new worker restores the newest
        snapshot, replays the op-log tail, and serves identically."""
        replicated_index.add_document("http://site/x1", "trophy w0 w1")
        replicated_index.refresh()
        node = replicated_index.cluster.place("http://site/x1").name
        before = len(replicated_index.remote.replicas[node])
        with telemetry_session() as telemetry:
            added = replicated_index.remote.expand(node)
            counters = telemetry.metrics.snapshot()["counters"]
        assert added == 1
        assert counters[f"remote.replicas_expanded{{node={node}}}"] == 1
        handles = replicated_index.remote.replicas[node]
        assert len(handles) == before + 1
        expected = replicated_index.nodes[node].generation
        assert all(handle.healthy and handle.generation == expected
                   for handle in handles)
        thread = replicated_index.query(
            "trophy melbourne", process_policy(backend="thread"))
        process = replicated_index.query("trophy melbourne",
                                         process_policy())
        assert process.ranking == thread.ranking

    def test_expand_unknown_node_is_a_remote_error(self, replicated_index):
        with pytest.raises(RemoteError, match="unknown node"):
            replicated_index.remote.expand("no-such-node")

    def test_expand_rejects_non_positive_counts(self, replicated_index):
        with pytest.raises(ValueError, match=">= 1"):
            replicated_index.remote.expand("node0", count=0)
