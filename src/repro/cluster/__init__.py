"""Cluster execution: fan-out, deadlines, retries, hedges, fault hooks.

One surface in front of the shared-nothing backend: an
:class:`Executor` fans per-node work out under an
:class:`~repro.core.config.ExecutionPolicy` (re-exported here for
convenience); a :class:`FaultInjector` makes slow and failing hosts
reproducible.  The distributed IR plan (:mod:`repro.ir.distributed`)
rides on it, over either backend's transport.
"""

from repro.cluster.executor import Executor, NodeOutcome
from repro.cluster.faults import FaultInjector, InjectedFault
from repro.core.config import ExecutionPolicy
from repro.errors import ClusterExecutionError

__all__ = [
    "Executor", "NodeOutcome", "FaultInjector", "InjectedFault",
    "ExecutionPolicy", "ClusterExecutionError",
]
