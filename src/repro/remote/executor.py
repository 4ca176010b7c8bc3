"""Read-path fan-out over replicas: failover, hedging, typed outcomes.

:class:`RemoteExecutor` is the process-backend twin of
:class:`~repro.cluster.executor.Executor`: one task per node in, one
:class:`~repro.cluster.executor.NodeOutcome` per node out, so
``DistributedIndex.query`` merges either backend's outcomes alike.  A
task is a :class:`RemoteCall` because the executor decides *which
replica* answers it: the node's healthy replicas are rotated
(:meth:`ReplicaSet.route`) and the first is tried; a **transport**
failure marks a replica unhealthy and fails over to the next
(``remote.failovers``); under ``policy.hedge_after_ms`` a replica
slower than that gets company on the next one (``remote.hedges_issued``,
``remote.hedges_won`` when the hedge answers first).
``node_deadline_ms`` bounds each node's effort from fan-out start,
``retries``/``backoff_ms`` wrap it in full-jitter retry rounds, and
``max_workers`` caps the nodes in flight.

All of it runs on the calling thread: every primary is sent, then one
``selectors`` loop waits for a readable socket (which feeds only its
own exchange's buffer), a hedge or backoff timer, or the deadline.  A
hedge loser or an attempt past the deadline is cancelled by closing
its socket, which is never pooled.
"""

from __future__ import annotations

import random
import selectors
import time
from collections import deque
from dataclasses import dataclass, field

from repro.cluster.executor import NodeOutcome
from repro.core.config import ExecutionPolicy
from repro.errors import RemoteError, RemoteTransportError
from repro.remote.client import Exchange, StaleConnection
from repro.remote.replicas import ReplicaSet, WorkerHandle
from repro.telemetry.runtime import get_telemetry

__all__ = ["RemoteExecutor", "RemoteCall"]


@dataclass
class RemoteCall:
    """One node's read task: an RPC the executor routes to a replica."""

    node: str
    op: str
    params: dict = field(default_factory=dict)


@dataclass(eq=False)
class _Node:
    """One node's effort: rounds of primary + failovers + one hedge."""

    call: RemoteCall
    outcome: NodeOutcome
    started: float = 0.0
    targets: list[WorkerHandle] = field(default_factory=list)
    next_target: int = 0
    # in a round: when to hedge; between rounds: when to retry
    wake_at: float | None = None
    attempts: list["_Attempt"] = field(default_factory=list)  # in flight
    finished: bool = False


@dataclass(eq=False)
class _Attempt:
    """One RPC in flight to one replica."""

    node: _Node
    handle: WorkerHandle
    is_hedge: bool
    exchange: Exchange


class RemoteExecutor:
    """Run per-node :class:`RemoteCall` tasks against a replica set."""

    def __init__(self, replicas: ReplicaSet,
                 policy: ExecutionPolicy | None = None, *,
                 rng: random.Random | None = None):
        self.replicas = replicas
        self.policy = policy or ExecutionPolicy()
        self.rng = rng or random.Random()

    def run(self, calls: dict[str, RemoteCall]) -> dict[str, NodeOutcome]:
        """Execute every node's call; one outcome per node in task order
        (the contract of :meth:`cluster.Executor.run`)."""
        nodes = {name: _Node(call, NodeOutcome(node=name))
                 for name, call in calls.items()}
        if nodes:
            _FanOut(self).run(list(nodes.values()))
        return {name: node.outcome for name, node in nodes.items()}


class _FanOut:
    """One :meth:`RemoteExecutor.run`: its selector and its nodes."""

    def __init__(self, executor: RemoteExecutor):
        self.replicas, self.rng = executor.replicas, executor.rng
        self.policy = policy = executor.policy
        self.deadline = self.expired = None
        if policy.node_deadline_ms is not None:
            self.deadline = time.monotonic() + policy.node_deadline_ms / 1e3
            self.expired = \
                f"deadline exceeded ({policy.node_deadline_ms:g}ms)"
        self.selector = selectors.DefaultSelector()
        self.metrics = get_telemetry().metrics

    def run(self, nodes: list[_Node]) -> None:
        waiting = deque(nodes)
        width = self.policy.max_workers or len(nodes)
        live: list[_Node] = []
        try:
            while waiting or live:
                while waiting and len(live) < width:
                    node = waiting.popleft()
                    node.started = time.monotonic()
                    live.append(node)
                    self._round(node)
                now = time.monotonic()
                for node in live:
                    self._tick(node, now)
                live = [node for node in live if not node.finished]
                if live:
                    for key, _ in self.selector.select(
                            self._timeout(live, now)):
                        self._readable(key.data)
        finally:
            for node in nodes:
                self._cancel(node)
            self.selector.close()

    def _timeout(self, live: list[_Node], now: float) -> float | None:
        """Seconds until the next timer: a hedge, a retry, the deadline."""
        times = [node.wake_at for node in live if node.wake_at is not None]
        if self.deadline is not None:
            times.append(self.deadline)
        return max(0.0, min(times) - now) if times else None

    # -- one node --------------------------------------------------------

    def _round(self, node: _Node) -> None:
        """Start the next round: route, then send to the primary."""
        node.outcome.attempts += 1
        now = time.monotonic()
        if self.deadline is not None and now >= self.deadline:
            self._expire(node, node.outcome.error or self.expired)
            return
        node.targets = self.replicas.route(node.call.node)
        node.next_target = 0
        if not node.targets:
            node.outcome.error = \
                f"no healthy replicas for node {node.call.node}"
            self._lost(node)
            return
        node.wake_at = None if self.policy.hedge_after_ms is None \
            else now + self.policy.hedge_after_ms / 1000.0
        self._launch(node, is_hedge=False)

    def _tick(self, node: _Node, now: float) -> None:
        """Fire whichever of the node's timers is due."""
        if node.finished:
            return
        if node.attempts and self.deadline is not None \
                and now >= self.deadline:
            self._expire(node, self.expired)
        elif node.wake_at is not None and now >= node.wake_at:
            node.wake_at = None
            if not node.attempts:
                self._round(node)
            elif node.next_target < len(node.targets):
                self._launch(node, is_hedge=True)
                self.metrics.counter("remote.hedges_issued").add(1)

    def _launch(self, node: _Node, is_hedge: bool) -> None:
        handle = node.targets[node.next_target]
        node.next_target += 1
        remaining = None if self.deadline is None \
            else max(0.001, self.deadline - time.monotonic())
        try:
            exchange = handle.client.send(node.call.op, node.call.params,
                                          deadline_s=remaining)
        except RemoteError as error:
            self._failed(node, handle, error)
            return
        self._watch(_Attempt(node, handle, is_hedge, exchange))

    def _readable(self, attempt: _Attempt) -> None:
        node, exchange = attempt.node, attempt.exchange
        if attempt not in node.attempts:
            return  # cancelled by a sibling's win earlier in this batch
        self._unwatch(attempt)  # before its socket is pooled or swapped
        try:
            try:
                done = exchange.feed()
            except StaleConnection:
                # the worker dropped this idle pooled connection: the
                # request goes once more on a fresh one, not a failover
                exchange.reopen()
                done = False
            if not done:
                self._watch(attempt)
                return
            value = exchange.result()
        except RemoteError as error:
            exchange.close()
            self._failed(node, attempt.handle, error)
            return
        node.outcome.value = value
        node.outcome.error = None
        if attempt.is_hedge:
            self.metrics.counter("remote.hedges_won").add(1)
        self._finish(node)

    def _failed(self, node: _Node, handle: WorkerHandle,
                error: RemoteError) -> None:
        """One attempt failed: fail over, or end the round."""
        node.outcome.error = f"{type(error).__name__}: {error}"
        if isinstance(error, RemoteTransportError):
            self.replicas.note_failure(handle)
        if node.next_target < len(node.targets):
            self.metrics.counter("remote.failovers").add(1)
            self._launch(node, is_hedge=False)
        elif not node.attempts:
            self._lost(node)

    def _lost(self, node: _Node) -> None:
        """A round ended without an answer: back off and retry, or stop."""
        attempts = node.outcome.attempts
        if attempts > self.policy.retries:
            self._finish(node)
            return
        now = time.monotonic()
        # full jitter: uniform below an exponentially growing ceiling
        ceiling = self.policy.backoff_ms / 1000.0 * (2 ** (attempts - 1))
        pause = self.rng.uniform(0.0, ceiling) if ceiling > 0 else 0.0
        if self.deadline is not None:
            pause = min(pause, max(0.0, self.deadline - now))
        node.wake_at = now + pause

    def _expire(self, node: _Node, error: str) -> None:
        node.outcome.timed_out = True
        node.outcome.error = error
        self._finish(node)

    def _finish(self, node: _Node) -> None:
        """The node is resolved; whatever it still has in flight lost."""
        self._cancel(node)
        node.finished = True
        node.outcome.elapsed_ms = (time.monotonic() - node.started) * 1000.0

    # -- sockets ---------------------------------------------------------

    def _watch(self, attempt: _Attempt) -> None:
        attempt.node.attempts.append(attempt)
        self.selector.register(attempt.exchange.sock, selectors.EVENT_READ,
                               attempt)

    def _unwatch(self, attempt: _Attempt) -> None:
        attempt.node.attempts.remove(attempt)
        self.selector.unregister(attempt.exchange.sock)

    def _cancel(self, node: _Node) -> None:
        """Close every attempt still in flight (hedge losers etc.)."""
        for attempt in list(node.attempts):
            self._unwatch(attempt)
            attempt.exchange.close()
