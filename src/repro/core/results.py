"""Result model of the integrated engine.

"Using the Webspace Method specific conceptual information can be
fetched as the result of a query, rather than a bunch of relevant
document URLs" — a result row therefore carries projected attribute
values, the bindings' object keys, the IR score that ranked it, and for
video-event predicates the matching shots (Fig 13's answer shows the
video fragments themselves).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ShotRange", "TurnRange", "ResultRow", "QueryResult"]


@dataclass(frozen=True)
class ShotRange:
    """One matching video shot (inclusive frame range)."""

    begin: int
    end: int
    event: str


@dataclass(frozen=True)
class TurnRange:
    """One matching audio speaker turn (seconds)."""

    start: float
    end: float
    speaker: int


@dataclass
class ResultRow:
    """One answer row."""

    keys: dict[str, str]                      # alias -> object key
    values: dict[str, object] = field(default_factory=dict)
    score: float = 0.0
    shots: dict[str, list[ShotRange]] = field(default_factory=dict)
    turns: dict[str, list[TurnRange]] = field(default_factory=dict)

    def value(self, path: str) -> object:
        return self.values.get(path)


@dataclass
class QueryResult:
    """All answer rows plus execution accounting.

    ``degraded`` / ``failed_nodes`` / ``node_tuples`` mirror the fields
    of :class:`~repro.ir.distributed.DistributedQueryResult` — when the
    engine runs on a cluster, the content predicates' distributed plans
    aggregate into them, so one :meth:`to_dict` shape serves both result
    types (``stats --json``, benchmarks).
    """

    rows: list[ResultRow] = field(default_factory=list)
    candidates_considered: int = 0
    tuples_touched: int = 0
    plan: object = None  # PlanNode of the executed physical plan
    degraded: bool = False
    failed_nodes: list[str] = field(default_factory=list)
    node_tuples: dict[str, int] = field(default_factory=dict)
    # schema-2 extras: per-facet value counts over the full (pre-limit)
    # row set, and that set's size.  Empty/None on v1 queries, and only
    # then omitted from to_dict() so v1 result shapes stay byte-stable.
    facets: dict[str, dict[str, int]] = field(default_factory=dict)
    total_rows: int | None = None

    def explain(self) -> str:
        """The executed physical plan, EXPLAIN ANALYZE style."""
        from repro.service.api import SCHEMA_VERSION

        text = str(self.plan) if self.plan is not None else "(no plan)"
        if self.degraded:
            text += ("\n(degraded: content ranking excludes failed nodes "
                     f"{sorted(self.failed_nodes)})")
        return text + f"\n(schema_version {SCHEMA_VERSION})"

    def to_dict(self) -> dict[str, object]:
        """The unified result shape shared with the distributed result."""
        from repro.service.api import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "conceptual",
            "rows": len(self.rows),
            "degraded": self.degraded,
            "failed_nodes": sorted(self.failed_nodes),
            "tuples": {
                "total": self.tuples_touched,
                "max_node": max(self.node_tuples.values(), default=0),
                "per_node": dict(self.node_tuples),
            },
            # the same PlanNode.to_dict() shape explain() renders, so
            # stats --json and the text EXPLAIN can never diverge
            "plan": (self.plan.to_dict()
                     if hasattr(self.plan, "to_dict") else None),
        } | ({"facets": {name: dict(counts)
                         for name, counts in self.facets.items()},
              "total_rows": self.total_rows}
             if self.facets or self.total_rows is not None else {})

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, path: str) -> list[object]:
        return [row.value(path) for row in self.rows]
