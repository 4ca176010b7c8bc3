"""One fan-out engine for both cluster backends.

The paper's distributed plan pushes one node-local top-N task to every
host and merges the returned rankings — "almost perfect shared nothing
parallelism".  :class:`Executor` is that fan-out: one task per node in,
one :class:`NodeOutcome` per node out, under one
:class:`~repro.core.config.ExecutionPolicy`:

* **width** — ``max_workers`` caps the nodes in flight (``None`` = all
  of them; ``1`` visits the nodes one after another, the benchmarks'
  baseline),
* **deadline** — ``node_deadline_ms`` bounds every node's effort from
  fan-out start; a node past it is ``timed_out``,
* **rounds** — a round routes the node and tries its first target; a
  failed attempt fails over to the next target (``remote.failovers``),
  and under ``hedge_after_ms`` a silent one gets company on the next
  (``remote.hedges_issued``, ``remote.hedges_won`` when it answers
  first),
* **retry** — a round that ends without an answer is retried up to
  ``retries`` times after a *full-jitter* backoff
  (:meth:`Executor.backoff_s`), so clients retrying against the same
  struggling node do not thunder back in lock-step,
* **cancel-on-finish** — once a node has its answer, or its deadline
  has passed, whatever it still has in flight is cancelled.

All of it runs on the calling thread: one :mod:`selectors` loop waits
for a readable socket, the next timer (an attempt's start, a hedge, a
backoff) or the deadline.  Below the loop is a transport of three
methods — :meth:`~Executor.route`, :meth:`~Executor.start` (begin one
attempt on one target) and :meth:`~Executor.note_failure`.  This class
is the thread backend's transport (the name is historical: it starts
no thread).  A node's one target is the coordinator's own copy, a
:class:`~repro.cluster.faults.FaultInjector` delay is a loop timer,
and the task then runs inline.  An attempt that has started is never
abandoned: the deadline bounds waiting (injected latency, backoff) and
is checked before each attempt.  :class:`repro.remote.RemoteExecutor`
is the process backend's transport, where targets are a node's worker
replicas and an attempt is an RPC whose socket the loop watches.

The executor never interprets failures — it reports one
:class:`NodeOutcome` per node and leaves the partial-result policy
(``on_failure``: raise vs. degrade) to the caller, which knows how to
merge what survived.
"""

from __future__ import annotations

import random
import selectors
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.config import ExecutionPolicy
from repro.telemetry.runtime import get_telemetry

__all__ = ["Executor", "NodeOutcome"]


@dataclass
class NodeOutcome:
    """What happened on one node: value or error, attempts, timing."""

    node: str
    value: Any = None
    error: str | None = None
    attempts: int = 0
    elapsed_ms: float = 0.0
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


class Executor:
    """Fan node tasks out under one :class:`ExecutionPolicy`."""

    def __init__(self, policy: ExecutionPolicy | None = None,
                 fault_injector=None, *,
                 rng: random.Random | None = None):
        self.policy = policy or ExecutionPolicy()
        self.faults = fault_injector
        self.rng = rng or random.Random()

    def run(self, tasks: dict[str, Any]) -> dict[str, NodeOutcome]:
        """Run every named task; returns one :class:`NodeOutcome` each.

        Outcomes preserve the order of ``tasks``.  The call returns once
        every node has an answer, has spent its retry budget, or is past
        its deadline.
        """
        nodes = {name: _Node(name, task, NodeOutcome(node=name))
                 for name, task in tasks.items()}
        if nodes:
            _FanOut(self).run(list(nodes.values()))
        return {name: node.outcome for name, node in nodes.items()}

    def backoff_s(self, attempt: int) -> float:
        """Full-jitter backoff before the round after round ``attempt``.

        Uniform over ``[0, backoff_ms * 2**(attempt-1))`` — the
        AWS-style "full jitter" variant, which decorrelates retry storms
        while keeping the exponential ceiling.  Seed the executor's
        ``rng`` to make schedules reproducible.
        """
        ceiling = self.policy.backoff_ms / 1000.0 * (2 ** (attempt - 1))
        return self.rng.uniform(0.0, ceiling) if ceiling > 0 else 0.0

    # -- the transport (thread backend) -------------------------------

    def route(self, node: str) -> list:
        """A node's targets, preferred first: its one local copy."""
        return [node]

    def start(self, node: str, task: Callable[[], Any], target,
              attempt: int, deadline: float | None) -> "_Inline":
        """Begin one attempt: the task runs on the loop once the
        injected delay, if any, is over."""
        delay_ms = self.faults.delay_ms(node) if self.faults else 0.0
        return _Inline(lambda: self._attempt(node, task, attempt),
                       time.monotonic() + delay_ms / 1000.0)

    def note_failure(self, target, error: Exception) -> None:
        """An attempt on ``target`` failed; a local copy has no health
        to mark."""

    def _attempt(self, node: str, task: Callable[[], Any], attempt: int):
        if self.faults is not None:
            self.faults.on_attempt(node, attempt)
        return task()


@dataclass(eq=False)
class _Inline:
    """A thread-backend attempt: the task, run when ``wake_at`` is due.

    Like every attempt the loop drives, it has a ``sock`` to watch (here
    none) or a ``wake_at`` timer, ``feed()`` advancing it (True once
    complete), ``result()`` and ``close()``.
    """

    run: Callable[[], Any]
    wake_at: float
    value: Any = None
    sock = None

    def feed(self) -> bool:
        self.value = self.run()
        return True

    def result(self) -> Any:
        return self.value

    def close(self) -> None:
        pass


@dataclass(eq=False)
class _Node:
    """One node's effort: rounds of primary + failovers + one hedge."""

    name: str
    task: Any
    outcome: NodeOutcome
    started: float = 0.0
    targets: list = field(default_factory=list)
    next_target: int = 0
    # in a round: when to hedge; between rounds: when to retry
    wake_at: float | None = None
    attempts: list["_Attempt"] = field(default_factory=list)  # in flight
    finished: bool = False


@dataclass(eq=False)
class _Attempt:
    """One attempt in flight on one target."""

    node: _Node
    target: Any
    is_hedge: bool
    work: Any  # what Executor.start returned


class _FanOut:
    """One :meth:`Executor.run`: its selector, deadline and nodes."""

    def __init__(self, executor: Executor):
        self.executor = executor
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
                for node in live:
                    self._tick(node)
                live = [node for node in live if not node.finished]
                if live:
                    for key, _ in self.selector.select(self._timeout(live)):
                        self._advance(key.data)
        finally:
            for node in nodes:
                self._cancel(node)
            self.selector.close()

    def _timeout(self, live: list[_Node]) -> float | None:
        """Seconds until the next timer: an attempt's start, a hedge, a
        retry, the deadline."""
        times = [node.wake_at for node in live if node.wake_at is not None]
        times += [attempt.work.wake_at for node in live
                  for attempt in node.attempts
                  if attempt.work.wake_at is not None]
        if self.deadline is not None:
            times.append(self.deadline)
        if not times:
            return None
        return max(0.0, min(times) - time.monotonic())

    # -- one node --------------------------------------------------------

    def _round(self, node: _Node) -> None:
        """Start the next round: route, then start the primary."""
        node.outcome.attempts += 1
        now = time.monotonic()
        if self.deadline is not None and now >= self.deadline:
            self._expire(node, node.outcome.error or self.expired)
            return
        node.targets = self.executor.route(node.name)
        node.next_target = 0
        if not node.targets:
            node.outcome.error = f"no healthy replicas for node {node.name}"
            self._lost(node)
            return
        node.wake_at = None if self.policy.hedge_after_ms is None \
            else now + self.policy.hedge_after_ms / 1000.0
        self._launch(node, is_hedge=False)

    def _tick(self, node: _Node) -> None:
        """Fire whichever of the node's timers is due, deadline first."""
        now = time.monotonic()
        if node.attempts and self.deadline is not None \
                and now >= self.deadline:
            self._expire(node, self.expired)
            return
        due = [attempt for attempt in node.attempts
               if attempt.work.wake_at is not None
               and now >= attempt.work.wake_at]
        for attempt in due:
            self._advance(attempt)
        if node.finished or node.wake_at is None or now < node.wake_at:
            return
        node.wake_at = None
        if not node.attempts:
            self._round(node)
        elif node.next_target < len(node.targets):
            self._launch(node, is_hedge=True)
            self.metrics.counter("remote.hedges_issued").add(1)

    def _launch(self, node: _Node, is_hedge: bool) -> None:
        target = node.targets[node.next_target]
        node.next_target += 1
        try:
            work = self.executor.start(node.name, node.task, target,
                                       node.outcome.attempts, self.deadline)
        except Exception as error:  # noqa: BLE001 - reported on the outcome
            self._failed(node, target, error)
            return
        self._watch(_Attempt(node, target, is_hedge, work))

    def _advance(self, attempt: _Attempt) -> None:
        """The attempt's socket is readable or its timer is due."""
        node, work = attempt.node, attempt.work
        if attempt not in node.attempts:
            return  # cancelled by a sibling's win earlier in this batch
        self._unwatch(attempt)  # before its socket is pooled or swapped
        try:
            if not work.feed():
                self._watch(attempt)
                return
            value = work.result()
        except Exception as error:  # noqa: BLE001 - reported on the outcome
            work.close()
            self._failed(node, attempt.target, error)
            return
        node.outcome.value = value
        node.outcome.error = None
        if attempt.is_hedge:
            self.metrics.counter("remote.hedges_won").add(1)
        self._finish(node)

    def _failed(self, node: _Node, target, error: Exception) -> None:
        """One attempt failed: fail over, or end the round."""
        node.outcome.error = f"{type(error).__name__}: {error}"
        self.executor.note_failure(target, error)
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
        pause = self.executor.backoff_s(attempts)
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

    # -- what the loop watches ---------------------------------------

    def _watch(self, attempt: _Attempt) -> None:
        attempt.node.attempts.append(attempt)
        if attempt.work.sock is not None:
            self.selector.register(attempt.work.sock, selectors.EVENT_READ,
                                   attempt)

    def _unwatch(self, attempt: _Attempt) -> None:
        attempt.node.attempts.remove(attempt)
        if attempt.work.sock is not None:
            self.selector.unregister(attempt.work.sock)

    def _cancel(self, node: _Node) -> None:
        """Close every attempt still in flight (hedge losers etc.)."""
        for attempt in list(node.attempts):
            self._unwatch(attempt)
            attempt.work.close()
