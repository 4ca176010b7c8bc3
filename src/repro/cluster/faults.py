"""Deterministic fault injection for the cluster executor.

Real shared-nothing clusters fail in two characteristic ways: a host is
*slow* (network latency, cold cache, overload) or a host *errors*
(crash, transient refusal).  :class:`FaultInjector` reproduces both on
demand so the failure semantics of the executor are testable and the
latency-bound parallelism win is benchmarkable without real hosts:

* :meth:`delay` / :meth:`delay_all` — pre-attempt latency per node (or
  for every node, modelling uniform network round-trips),
* :meth:`fail` — raise an injected error on a node's next N attempts
  (transient by default: a retry after the budget succeeds).

A delay is a timer on the executor's loop, not a sleep: the delays of
several nodes overlap, and a node past its deadline stops waiting at
once.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import ClusterExecutionError

__all__ = ["FaultInjector", "InjectedFault"]


class InjectedFault(ClusterExecutionError):
    """The error raised by an injected node failure (transient by default)."""


class FaultInjector:
    """Per-node delay/failure hooks, consulted before every attempt."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._delays_ms: dict[str, float] = {}
        self._failures: dict[str, list[Any]] = {}  # node -> [left, error]
        self._default_delay_ms = 0.0

    # -- configuration ----------------------------------------------------

    def delay(self, node: str, ms: float) -> "FaultInjector":
        """Delay every attempt on ``node`` by ``ms`` milliseconds."""
        with self._lock:
            self._delays_ms[node] = float(ms)
        return self

    def delay_all(self, ms: float) -> "FaultInjector":
        """Uniform per-attempt latency for every node (simulated network)."""
        with self._lock:
            self._default_delay_ms = float(ms)
        return self

    def fail(self, node: str, times: int = 1,
             error: Exception | None = None) -> "FaultInjector":
        """Fail the next ``times`` attempts on ``node`` with ``error``."""
        with self._lock:
            self._failures[node] = [int(times), error]
        return self

    def clear(self) -> "FaultInjector":
        """Remove every configured fault."""
        with self._lock:
            self._delays_ms.clear()
            self._failures.clear()
            self._default_delay_ms = 0.0
        return self

    # -- the executor-facing hooks ----------------------------------------

    def delay_ms(self, node: str) -> float:
        """The latency to wait out before each attempt on ``node``."""
        with self._lock:
            return self._delays_ms.get(node, self._default_delay_ms)

    def on_attempt(self, node: str, attempt: int) -> None:
        """Apply this node's failures to one attempt, once its delay is
        over: raises the injected error when a failure is due."""
        error: Exception | None = None
        due = False
        with self._lock:
            pending = self._failures.get(node)
            if pending is not None and pending[0] > 0:
                pending[0] -= 1
                due = True
                error = pending[1]
        if due:
            raise error if error is not None else InjectedFault(
                f"injected fault on {node} (attempt {attempt})")
