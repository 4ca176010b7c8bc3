"""Engine configuration and the unified execution policy.

Execution knobs used to be ad-hoc kwargs scattered over
``DistributedIndex.query`` (``n``, ``prune``), the engine and the CLI.
:class:`ExecutionPolicy` collapses them into one frozen value object that
every query surface accepts (``SearchEngine.query``,
``DistributedIndex.query``, ``repro-search`` flags).  The legacy
``n=``/``prune=`` kwargs spent one release as deprecated aliases; the
deprecation is now finished and :meth:`ExecutionPolicy.coerce` rejects
them with a :class:`TypeError` naming the replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["EngineConfig", "ExecutionPolicy"]


@dataclass(frozen=True)
class ExecutionPolicy:
    """Every knob of one (distributed) query execution, in one place.

    * ``n`` / ``prune`` — result size and fragment pruning (the former
      ad-hoc kwargs of the top-N plans),
    * ``max_workers`` — fan-out width of the cluster executor: how many
      nodes it keeps in flight at once; ``None`` means every node,
    * ``node_deadline_ms`` — per-node time budget measured from fan-out
      start; ``None`` disables deadlines,
    * ``retries`` / ``backoff_ms`` — how often a failed node attempt is
      retried and the base of the (full-jitter) exponential backoff
      between attempts,
    * ``backend`` — where node tasks execute: ``"thread"`` (the
      default; the name is historical, no thread is started) runs them
      in-process on the calling thread against the coordinator's copy
      of each node; ``"process"`` routes them to the shared-nothing
      process-per-node workers of an attached
      :class:`~repro.remote.ReplicaSet` (``DistributedIndex.start_remote``),
    * ``hedge_after_ms`` — when a node's attempt has not answered after
      this budget and the node has another target, the same task is
      re-issued to it and the first response wins (the loser is
      cancelled).  Only a process-backend node has a second target (its
      next replica); an in-process node has one.  ``None`` disables
      hedging,
    * ``on_failure`` — what a node failure means for the query:
      ``"raise"`` propagates a
      :class:`~repro.errors.ClusterExecutionError`; ``"degrade"``
      returns the merged ranking of the surviving nodes with the
      failures recorded on the result (``failed_nodes`` / ``degraded``),
    * ``cache`` — whether this query may be served from (and stored
      into) the search service's generation-stamped result cache.
      ``cache=False`` bypasses the cache entirely (the CLI's
      ``--no-cache``); degraded results are never cached regardless,
    * ``cache_size`` and ``plan_cache`` — no effect.  They stay
      accepted because every request's wire ``policy`` carries every
      field; they go with the next request-wire change.
    """

    n: int = 10
    prune: bool = True
    max_workers: int | None = None
    node_deadline_ms: float | None = None
    retries: int = 0
    backoff_ms: float = 10.0
    on_failure: str = "raise"  # "raise" | "degrade"
    backend: str = "thread"  # "thread" | "process"
    hedge_after_ms: float | None = None
    cache: bool = True
    cache_size: int = 128
    plan_cache: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"policy n must be >= 1, got {self.n}")
        if self.cache_size < 1:
            raise ValueError(
                f"policy cache_size must be >= 1, got {self.cache_size}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(
                f"policy max_workers must be >= 1, got {self.max_workers}")
        if self.node_deadline_ms is not None and self.node_deadline_ms <= 0:
            raise ValueError("policy node_deadline_ms must be > 0, got "
                             f"{self.node_deadline_ms}")
        if self.retries < 0:
            raise ValueError(f"policy retries must be >= 0, "
                             f"got {self.retries}")
        if self.backoff_ms < 0:
            raise ValueError(f"policy backoff_ms must be >= 0, "
                             f"got {self.backoff_ms}")
        if self.on_failure not in ("raise", "degrade"):
            raise ValueError("policy on_failure must be 'raise' or "
                             f"'degrade', got {self.on_failure!r}")
        if self.backend not in ("thread", "process"):
            raise ValueError("policy backend must be 'thread' or "
                             f"'process', got {self.backend!r}")
        if self.hedge_after_ms is not None and self.hedge_after_ms <= 0:
            raise ValueError("policy hedge_after_ms must be > 0, got "
                             f"{self.hedge_after_ms}")

    def replace(self, **overrides) -> "ExecutionPolicy":
        """A copy with some fields changed (re-validated)."""
        return replace(self, **overrides)

    @classmethod
    def coerce(cls, policy: "ExecutionPolicy | None" = None, *,
               n: int | None = None, prune: bool | None = None
               ) -> "ExecutionPolicy":
        """Reject the removed ``n=``/``prune=`` kwargs; default the policy.

        The aliases were deprecated for one release (DeprecationWarning
        since the cluster-execution redesign); every query surface now
        funnels through here, so passing either raises a
        :class:`TypeError` naming :class:`ExecutionPolicy` — the single
        sanctioned way to size or steer a query.
        """
        if n is not None or prune is not None:
            raise TypeError(
                "the n=/prune= kwargs were removed; pass "
                "policy=ExecutionPolicy(n=..., prune=...) instead")
        if policy is not None and not isinstance(policy, cls):
            raise TypeError(
                "expected an ExecutionPolicy, got "
                f"{type(policy).__name__}; bare result sizes were "
                "removed — pass policy=ExecutionPolicy(n=...)")
        return policy if policy is not None else cls()


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the integrated search engine.

    ``cluster_size`` and ``fragment_count`` drive the physical level's
    scalability hooks (shared-nothing IR distribution and idf-ordered
    fragmentation); ``top_n`` is the default result size; ``crawl_seed``
    is the crawler's entry page; ``execution`` is the default
    :class:`ExecutionPolicy` of every query this engine runs (per-query
    policies override it).
    """

    cluster_size: int = 1
    fragment_count: int = 4
    top_n: int = 10
    crawl_seed: str = "index.html"
    execution: ExecutionPolicy = ExecutionPolicy()
