"""N-way replica placement, spawning, repair and snapshot bootstrap.

A :class:`ReplicaSet` gives every cluster node ``replication_factor``
process-per-node workers (spawned as ``python -m repro.remote.worker``
subprocesses).  The coordinator's in-process node relations stay the
*authoritative* copy — every write is applied locally first and then
fanned to all of the node's replicas (dual-write), which is what makes
the ``backend`` knob switchable per query: the thread backend reads
the local copies, the process backend reads the replicas, and the two
are kept bit-identical.

Consistency is generation-stamped: each write's RPC reply carries the
replica's post-write generation, which must equal the local node's.  A
replica that misses a write (transport failure) or diverges (generation
mismatch) is marked unhealthy and queries route around it; a later
:meth:`repair` replaces it with a fresh worker **bootstrapped from the
newest committed checkpoint** and caught up by replaying the per-node
op-log past the checkpoint's sequence number — the cluster keeps
serving throughout.  A checkpoint is a ``node`` object of
:mod:`repro.persistence.manifest` (the IR part ``ir.bats`` plus a
manifest recording the op-log ``seq``) in a
:class:`~repro.persistence.snapshot.SnapshotStore` generation
directory; its stamps are verified before any worker loads it.

Every spawned worker registers in a module-level live-process registry
so test fixtures can assert no worker outlives its test (the process
analogue of the thread-leak checks in ``tests/cluster``).
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.errors import (RemoteError, RemoteTransportError, SnapshotError,
                          WorkerStartupError)
from repro.ir.relations import IrRelations
from repro.persistence.manifest import (Manifest, save_ir_object,
                                        verify_files)
from repro.persistence.snapshot import SnapshotStore
from repro.remote.client import WorkerClient
from repro.telemetry.runtime import get_telemetry
from repro.wal.record import Record

__all__ = ["ReplicaSet", "WorkerHandle", "live_worker_pids"]

#: pid -> Popen of every worker this process spawned and has not yet
#: reaped; test conftests assert it drains back to empty.
_LIVE_WORKERS: dict[int, subprocess.Popen] = {}
_REGISTRY_LOCK = threading.Lock()


def live_worker_pids() -> list[int]:
    """Pids of spawned workers still registered (leak detection)."""
    with _REGISTRY_LOCK:
        for pid, proc in list(_LIVE_WORKERS.items()):
            if proc.poll() is not None:
                _LIVE_WORKERS.pop(pid, None)
        return sorted(_LIVE_WORKERS)


@dataclass
class WorkerHandle:
    """One replica: its subprocess, its RPC client, its health."""

    node: str
    slot: int
    process: subprocess.Popen
    client: WorkerClient
    healthy: bool = True
    generation: int = field(default=0, repr=False)

    @property
    def name(self) -> str:
        return self.client.name

    def alive(self) -> bool:
        return self.process.poll() is None

    def usable(self) -> bool:
        return self.healthy and self.alive()


class ReplicaSet:
    """All replicas of all nodes, plus the machinery to keep them honest."""

    def __init__(self, nodes: dict[str, IrRelations], *,
                 replication_factor: int = 2, fragment_count: int = 4,
                 snapshot_root: str | Path | None = None,
                 spawn_timeout_s: float = 30.0,
                 rpc_deadline_s: float = 60.0):
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1, "
                             f"got {replication_factor}")
        self.nodes = nodes
        self.replication_factor = replication_factor
        self.fragment_count = fragment_count
        self.spawn_timeout_s = spawn_timeout_s
        self.rpc_deadline_s = rpc_deadline_s
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if snapshot_root is None:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-replicas-")
            snapshot_root = self._tmpdir.name
        self.snapshot_root = Path(snapshot_root)
        self.replicas: dict[str, list[WorkerHandle]] = {}
        # the per-node op-log speaks the WAL's record format
        # (repro.wal.record.Record), so replica bootstrap replay and
        # coordinator crash recovery share one replay vocabulary
        self._oplog: dict[str, list[Record]] = {name: [] for name in nodes}
        self._seq: dict[str, int] = {name: 0 for name in nodes}
        self._slots: dict[str, int] = {name: 0 for name in nodes}
        self._rr: dict[str, int] = {}
        self._lock = threading.Lock()
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn every replica, then checkpoint and bootstrap each node.

        A worker's start is mostly interpreter and import time, so all
        of them are launched before the first READY line is awaited:
        the starts overlap each other and the checkpoints.
        """
        if self._started:
            return
        launched = [(node, *self._launch(node)) for node in self.nodes
                    for _ in range(self.replication_factor)]
        try:
            checkpoints = {node: self._checkpoint_from_local(node)
                           for node in self.nodes}
            while launched:
                node, slot, proc = launched.pop(0)
                handle = self._ready(node, slot, proc)
                self.replicas.setdefault(node, []).append(handle)
                self._bootstrap(handle, node, *checkpoints[node])
        finally:
            for _, _, proc in launched:  # never awaited: start failed
                proc.kill()
                self._reap(proc)
        self._started = True

    def stop(self) -> None:
        """Shut every worker down; best-effort RPC, then SIGTERM/SIGKILL.

        Every worker is told to stop before any is waited for, so their
        exits overlap.
        """
        handles = [handle for handles in self.replicas.values()
                   for handle in handles]
        for handle in handles:
            self._signal_stop(handle)
        for handle in handles:
            self._reap(handle.process)
        self.replicas = {}
        self._started = False
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def _stop_handle(self, handle: WorkerHandle) -> None:
        self._signal_stop(handle)
        self._reap(handle.process)

    @staticmethod
    def _signal_stop(handle: WorkerHandle) -> None:
        if handle.alive():
            try:
                handle.client.call("shutdown", deadline_s=2.0)
            except RemoteError:
                pass
            handle.process.terminate()
        handle.client.close()

    @staticmethod
    def _reap(proc: subprocess.Popen) -> None:
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            proc.kill()
            proc.wait(timeout=5.0)
        if proc.stdout is not None:
            proc.stdout.close()
        with _REGISTRY_LOCK:
            _LIVE_WORKERS.pop(proc.pid, None)

    # -- spawning --------------------------------------------------------

    def _spawn(self, node: str) -> WorkerHandle:
        """Launch one worker subprocess and wait for its READY line."""
        return self._ready(node, *self._launch(node))

    def _launch(self, node: str) -> tuple[int, subprocess.Popen]:
        """Start one worker subprocess; returns its slot and process."""
        with self._lock:
            slot = self._slots[node]
            self._slots[node] += 1
        name = f"{node}/r{slot}"
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root if not extra \
            else src_root + os.pathsep + extra
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.remote.worker",
             "--port", "0", "--name", name,
             "--fragments", str(self.fragment_count)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True)
        with _REGISTRY_LOCK:
            _LIVE_WORKERS[proc.pid] = proc
        return slot, proc

    def _ready(self, node: str, slot: int,
               proc: subprocess.Popen) -> WorkerHandle:
        """Await a launched worker's READY line; its handle."""
        name = f"{node}/r{slot}"
        try:
            info = self._await_ready(proc, name)
        except WorkerStartupError:
            with _REGISTRY_LOCK:
                _LIVE_WORKERS.pop(proc.pid, None)
            raise
        client = WorkerClient(info["host"], info["port"], name=name)
        get_telemetry().metrics.counter("remote.workers_spawned").add(1)
        return WorkerHandle(node=node, slot=slot, process=proc,
                            client=client)

    def _await_ready(self, proc: subprocess.Popen, name: str) -> dict:
        deadline = time.monotonic() + self.spawn_timeout_s
        stream = proc.stdout
        assert stream is not None
        line = None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.1)
            if ready:
                line = stream.readline()
                break
            if proc.poll() is not None:
                break
        if not line:
            proc.kill()
            proc.wait(timeout=5.0)
            raise WorkerStartupError(
                f"worker {name} did not report readiness within "
                f"{self.spawn_timeout_s:g}s")
        try:
            info = json.loads(line)
        except json.JSONDecodeError as exc:
            proc.kill()
            proc.wait(timeout=5.0)
            raise WorkerStartupError(
                f"worker {name} wrote a malformed ready line: "
                f"{line!r}") from exc
        if not info.get("ready"):
            proc.wait(timeout=5.0)
            raise WorkerStartupError(
                f"worker {name} failed to start: "
                f"{info.get('error', 'unknown error')}")
        return info

    # -- snapshots & bootstrap ------------------------------------------

    def _store(self, node: str) -> SnapshotStore:
        return SnapshotStore(self.snapshot_root / node.replace("/", "_"))

    def _checkpoint_from_local(self, node: str) -> tuple[Path, Manifest]:
        """Checkpoint the *authoritative* local copy of one node."""
        store = self._store(node)
        generation, path = store.begin()
        manifest = save_ir_object(self.nodes[node], path, "node",
                                  seq=self._seq[node])
        return self._commit(node, store, generation, path, manifest)

    def _commit(self, node: str, store: SnapshotStore, generation: int,
                path: Path, manifest: Manifest) -> tuple[Path, Manifest]:
        store.commit(generation)
        get_telemetry().metrics.counter("remote.checkpoints").add(1)
        self._truncate_oplog(node, manifest.seq)
        return path, manifest

    def checkpoint(self, node: str) -> tuple[Path, Manifest]:
        """Checkpoint one node from a healthy replica (shared-nothing).

        Falls back to the coordinator's local copy when no replica is
        usable — the snapshot contents are identical either way, the
        difference is only who pays the serialization work.
        """
        source = next((handle for handle in self.replicas.get(node, ())
                       if handle.usable()), None)
        if source is None:
            return self._checkpoint_from_local(node)
        store = self._store(node)
        generation, path = store.begin()
        try:
            source.client.call(
                "checkpoint", {"path": str(path), "seq": self._seq[node]},
                deadline_s=self.rpc_deadline_s)
        except RemoteTransportError:
            self.note_failure(source)
            return self._checkpoint_from_local(node)
        return self._commit(node, store, generation, path,
                            Manifest.load(path, "node"))

    def _truncate_oplog(self, node: str, seq: int) -> int:
        """Drop op-log entries a committed checkpoint covers.

        Without this the log grows without bound between repairs.  The
        trade-off is that *older* retained checkpoints can no longer be
        caught up from the log — bootstrapping from one then diverges
        (generation mismatch) and :meth:`repair` falls back to a fresh
        local checkpoint, which needs no tail at all.
        """
        with self._lock:
            log = self._oplog[node]
            kept = [record for record in log if record.seq > seq]
            dropped = len(log) - len(kept)
            self._oplog[node] = kept
        if dropped:
            get_telemetry().metrics.counter("remote.oplog_truncated",
                                            node=node).add(dropped)
        return dropped

    def _newest_checkpoint(self, node: str
                           ) -> tuple[Path, Manifest] | None:
        """The newest committed checkpoint whose stamps verify."""
        store = self._store(node)
        try:
            candidates = store.candidates()
        except SnapshotError:
            return None
        for generation in candidates:
            path = store.path(generation)
            try:
                manifest = Manifest.load(path, "node")
                verify_files(path, manifest)
            except SnapshotError:
                get_telemetry().metrics.counter(
                    "remote.checkpoint_corruptions").add(1)
                continue
            return path, manifest
        return None

    def _bootstrap(self, handle: WorkerHandle, node: str,
                   path: Path, manifest: Manifest) -> None:
        """Restore a worker from a checkpoint, then replay the op-log
        tail past the checkpoint's ``seq``."""
        value = handle.client.call("bootstrap", {"path": str(path)},
                                   deadline_s=self.rpc_deadline_s)
        handle.generation = int(value["generation"])
        with self._lock:
            tail = [record for record in self._oplog[node]
                    if record.seq > manifest.seq]
        for record in tail:
            reply = handle.client.call(
                record.op, record.params, deadline_s=self.rpc_deadline_s)
            handle.generation = int(reply.get("generation",
                                              handle.generation))
        expected = self.nodes[node].generation
        if handle.generation != expected:
            raise RemoteError(
                f"replica {handle.name} diverged after bootstrap: "
                f"generation {handle.generation} != local {expected}")
        handle.healthy = True
        get_telemetry().metrics.counter("remote.bootstraps").add(1)

    # -- health & repair -------------------------------------------------

    def note_failure(self, handle: WorkerHandle) -> None:
        """Mark one replica unhealthy (transport-level failure only)."""
        if handle.healthy:
            handle.healthy = False
            get_telemetry().metrics.counter("remote.replica_unhealthy").add(1)

    def healthy_replicas(self, node: str) -> list[WorkerHandle]:
        return [handle for handle in self.replicas.get(node, ())
                if handle.usable()]

    def route(self, node: str) -> list[WorkerHandle]:
        """Healthy replicas of a node, rotated for read balancing.

        The first entry is the preferred primary for this read; the
        rest are failover / hedging targets in order.
        """
        handles = self.healthy_replicas(node)
        if not handles:
            return []
        with self._lock:
            turn = self._rr[node] = self._rr.get(node, -1) + 1
        pivot = turn % len(handles)
        return handles[pivot:] + handles[:pivot]

    def needs_repair(self) -> list[str]:
        """Nodes with at least one dead or unhealthy replica slot."""
        return [node for node, handles in self.replicas.items()
                if any(not handle.usable() for handle in handles)]

    def repair(self, node: str | None = None) -> int:
        """Replace dead/unhealthy replicas; returns replicas replaced.

        Each replacement bootstraps from the newest committed snapshot
        (taking a fresh one from a healthy peer — or the local copy —
        when none exists) and catches up via the op-log, all while the
        node's surviving replicas keep serving reads.
        """
        names = [node] if node is not None else list(self.replicas)
        replaced = 0
        for name in names:
            handles = self.replicas.get(name, [])
            for index, handle in enumerate(handles):
                if handle.usable():
                    continue
                self._stop_handle(handle)
                checkpoint = self._newest_checkpoint(name)
                if checkpoint is None:
                    checkpoint = self.checkpoint(name)
                replacement = self._spawn(name)
                try:
                    self._bootstrap(replacement, name, *checkpoint)
                except RemoteError:
                    # bootstrap from a *fresh* local checkpoint before
                    # giving up: the snapshot may predate a long op-log
                    # tail whose replay diverged
                    fresh = self._checkpoint_from_local(name)
                    self._bootstrap(replacement, name, *fresh)
                handles[index] = replacement
                replaced += 1
        return replaced

    def expand(self, node: str, count: int = 1) -> int:
        """Grow one node's replica set online; returns replicas added.

        The rebalance path: each new worker bootstraps from the newest
        committed snapshot and catches up by replaying the op-log tail
        past the snapshot's sequence number — the node's existing
        replicas keep serving reads and taking writes throughout, no
        stop-the-world refresh.
        """
        if node not in self.nodes:
            raise RemoteError(f"unknown node {node!r}")
        if count < 1:
            raise ValueError(f"expand count must be >= 1, got {count}")
        checkpoint = self._newest_checkpoint(node)
        if checkpoint is None:
            checkpoint = self.checkpoint(node)
        added = 0
        for _ in range(count):
            handle = self._spawn(node)
            try:
                self._bootstrap(handle, node, *checkpoint)
            except RemoteError:
                # the snapshot predates a truncated op-log tail: take a
                # fresh checkpoint (needs no tail) and bootstrap from it
                checkpoint = self._checkpoint_from_local(node)
                self._bootstrap(handle, node, *checkpoint)
            self.replicas.setdefault(node, []).append(handle)
            added += 1
        get_telemetry().metrics.counter("remote.replicas_expanded",
                                        node=node).add(added)
        return added

    # -- writes ----------------------------------------------------------

    def apply_write(self, node: str, op: str, params: dict) -> None:
        """Log a write and send it once to every usable replica.

        The caller has already applied the write to the authoritative
        local relations; this method never raises — a replica that
        misses the write or disagrees on the resulting generation is
        marked unhealthy and healed later by :meth:`repair` (the op is
        in the log, so nothing is lost).  A replica already written off
        gets nothing until its replacement bootstraps, and a write is
        never retried: one wedged replica costs the write lock at most
        one ``rpc_deadline_s``.
        """
        local_generation = self.nodes[node].generation
        with self._lock:
            self._seq[node] += 1
            self._oplog[node].append(Record(self._seq[node], op,
                                            dict(params)))
        for handle in self.replicas.get(node, ()):
            if not handle.usable():
                self.note_failure(handle)
                continue
            try:
                reply = handle.client.call(
                    op, params, deadline_s=self.rpc_deadline_s)
            except RemoteError:
                # a transport failure, or the worker executed and
                # refused (its state diverged from the authoritative
                # copy): either way, replace it
                self.note_failure(handle)
                continue
            handle.generation = int(reply.get("generation",
                                              handle.generation))
            if handle.generation != local_generation:
                self.note_failure(handle)

    def broadcast(self, op: str, params: dict | None = None) -> None:
        """Send a non-mutating op (e.g. ``refresh``) to every replica."""
        for handles in self.replicas.values():
            for handle in handles:
                if not handle.usable():
                    continue
                try:
                    handle.client.call(op, params or {},
                                       deadline_s=self.rpc_deadline_s)
                except RemoteTransportError:
                    self.note_failure(handle)
                except RemoteError:
                    pass

    # -- introspection & test hooks -------------------------------------

    def set_fault(self, node: str, delay_ms: float, slot: int = 0) -> None:
        """Inject per-search latency into one replica (tests, benchmarks)."""
        handle = self.replicas[node][slot]
        handle.client.call("set_fault", {"delay_ms": delay_ms},
                           deadline_s=5.0)

    def kill_replica(self, node: str, slot: int = 0) -> int:
        """Hard-kill one replica's process (fault injection); returns pid."""
        handle = self.replicas[node][slot]
        pid = handle.process.pid
        handle.process.kill()
        handle.process.wait(timeout=5.0)
        return pid

    def status(self) -> dict:
        """Per-replica health, the shape ``/healthz`` reports."""
        with self._lock:
            oplog = {node: len(log) for node, log in self._oplog.items()}
        return {
            "replication_factor": self.replication_factor,
            "oplog": oplog,
            "nodes": {
                node: [{
                    "name": handle.name,
                    "slot": handle.slot,
                    "pid": handle.process.pid,
                    "port": handle.client.port,
                    "healthy": handle.usable(),
                    "generation": handle.generation,
                } for handle in handles]
                for node, handles in self.replicas.items()
            },
        }
