"""The process transport: a node's targets are its worker replicas.

:class:`RemoteExecutor` is :class:`~repro.cluster.executor.Executor`
over the process backend — one :class:`RemoteCall` per node in, one
:class:`~repro.cluster.executor.NodeOutcome` per node out, through the
same loop, deadline, retry rounds and hedge, so
``DistributedIndex.query`` merges either backend's outcomes alike.
Only the transport differs:

* **route** — the node's healthy replicas, rotated for read balancing
  (:meth:`ReplicaSet.route`); the first is the primary, the rest are
  failover and hedge targets in order,
* **start** — an attempt is an RPC put on the wire by
  :meth:`WorkerClient.send`; the loop watches its
  :class:`~repro.remote.client.Exchange`'s socket, which feeds only its
  own exchange's buffer.  A hedge loser or an attempt past the deadline
  is cancelled by closing its socket, which is never pooled,
* **note_failure** — only a **transport** failure marks a replica
  unhealthy; a worker that replied with an error is healthy.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.cluster.executor import Executor
from repro.core.config import ExecutionPolicy
from repro.errors import RemoteTransportError
from repro.remote.client import Exchange
from repro.remote.replicas import ReplicaSet, WorkerHandle

__all__ = ["RemoteExecutor", "RemoteCall"]


@dataclass
class RemoteCall:
    """One node's read task: an RPC the executor routes to a replica."""

    node: str
    op: str
    params: dict = field(default_factory=dict)


class RemoteExecutor(Executor):
    """Run per-node :class:`RemoteCall` tasks against a replica set."""

    def __init__(self, replicas: ReplicaSet,
                 policy: ExecutionPolicy | None = None, *,
                 rng: random.Random | None = None):
        super().__init__(policy, rng=rng)
        self.replicas = replicas

    def route(self, node: str) -> list[WorkerHandle]:
        return self.replicas.route(node)

    def start(self, node: str, task: RemoteCall, target: WorkerHandle,
              attempt: int, deadline: float | None) -> Exchange:
        remaining = None if deadline is None \
            else max(0.001, deadline - time.monotonic())
        return target.client.send(task.op, task.params,
                                  deadline_s=remaining)

    def note_failure(self, target: WorkerHandle, error: Exception) -> None:
        if isinstance(error, RemoteTransportError):
            self.replicas.note_failure(target)
