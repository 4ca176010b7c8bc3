"""Shared-nothing process backend: workers, replicas, hedged reads.

The paper runs its distributed experiment on "several database
servers" — separate processes on separate hosts, not threads in one
address space.  This package supplies that execution level:

* :mod:`repro.remote.protocol` — length-prefixed JSON frames with
  typed torn/oversized/malformed failure modes,
* :mod:`repro.remote.worker` — one node as a subprocess
  (``python -m repro.remote.worker``) serving search/write/bootstrap
  RPCs over its private :class:`~repro.ir.relations.IrRelations`,
* :mod:`repro.remote.client` — kept-alive pooled connections, RPCs in
  send/receive halves with connect/read deadlines, and the
  transport/protocol/application error taxonomy,
* :mod:`repro.remote.replicas` — N-way placement, dual-write
  generation reconciliation, snapshot checkpoint/bootstrap and repair,
* :mod:`repro.remote.executor` — the read path: the process transport
  (replica rotation, transport-failure health, RPC attempts) under the
  one fan-out engine, :class:`~repro.cluster.executor.Executor`, whose
  socket loop adds failover and hedged requests.

``DistributedIndex.start_remote`` wires it all to the existing cluster
API; ``ExecutionPolicy(backend="process")`` routes a query through it.
"""

__all__ = [
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "send_frame", "recv_frame",
    "NodeWorker", "WorkerClient", "ReplicaSet",
    "WorkerHandle", "live_worker_pids", "RemoteExecutor", "RemoteCall",
]

# Lazy exports (PEP 562), not convenience: ``python -m
# repro.remote.worker`` imports this package before anything else, and
# an eager import of the executor here would enter the repro.cluster →
# repro.core → repro.ir import cycle from its one unsupported starting
# point.  Deferring until first attribute access keeps every entry
# order working.
_EXPORTS = {
    "PROTOCOL_VERSION": "repro.remote.protocol",
    "MAX_FRAME_BYTES": "repro.remote.protocol",
    "send_frame": "repro.remote.protocol",
    "recv_frame": "repro.remote.protocol",
    "NodeWorker": "repro.remote.worker",
    "WorkerClient": "repro.remote.client",
    "ReplicaSet": "repro.remote.replicas",
    "WorkerHandle": "repro.remote.replicas",
    "live_worker_pids": "repro.remote.replicas",
    "RemoteExecutor": "repro.remote.executor",
    "RemoteCall": "repro.remote.executor",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
