"""Physical query plans: what the translator produced, with counters.

"Under the hood of the system the query is translated into an XML
representation, which in its turn is translated into the query algebra
of the storage engine."  The executor records that translation as a
plan tree annotated with runtime counters — an EXPLAIN ANALYZE for
conceptual queries, used by the CLI, the examples and the tests that
pin down *which* physical operations a predicate turns into.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PlanNode", "format_plan"]


@dataclass
class PlanNode:
    """One operator of the executed physical plan."""

    operator: str                       # e.g. "AttrSelect", "IrProbe"
    detail: str = ""                    # e.g. "p.gender == 'female'"
    counters: dict[str, object] = field(default_factory=dict)
    children: list["PlanNode"] = field(default_factory=list)

    def add(self, child: "PlanNode") -> "PlanNode":
        self.children.append(child)
        return child

    def counter(self, name: str, value) -> "PlanNode":
        self.counters[name] = value
        return self

    def to_dict(self) -> dict[str, object]:
        """The one structured EXPLAIN shape, stamped with the schema
        version.

        Both plan surfaces — ``QueryResult.explain()`` text and
        ``repro-search stats --json`` — derive from this dict, so they
        can never drift apart.  The columnar-execution fields
        (``kernel``, ``rows_in``/``rows_out``) are lifted out of the
        counters: ``None`` when the operator did not
        record them.
        """
        from repro.service.api import SCHEMA_VERSION

        counters = dict(self.counters)
        return {
            "schema_version": SCHEMA_VERSION,
            "operator": self.operator,
            "detail": self.detail,
            "kernel": counters.get("kernel"),
            "rows_in": counters.get("rows_in", counters.get("in")),
            "rows_out": counters.get(
                "rows_out", counters.get("out", counters.get("rows"))),
            "counters": counters,
            "children": [child.to_dict() for child in self.children],
        }

    def find(self, operator: str) -> list["PlanNode"]:
        """All nodes of one operator kind, preorder."""
        found = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.operator == operator:
                found.append(node)
            stack.extend(reversed(node.children))
        return found

    def __str__(self) -> str:
        return format_plan(self)


def format_plan(node: "PlanNode | dict", indent: int = 0) -> str:
    """Render a plan tree in the usual EXPLAIN style.

    Accepts a :class:`PlanNode` or its :meth:`PlanNode.to_dict` shape —
    internally everything renders from the dict, so the text and JSON
    surfaces are two views of the same structure.
    """
    if isinstance(node, PlanNode):
        node = node.to_dict()
    pad = "  " * indent
    counters = ""
    if node.get("counters"):
        parts = ", ".join(f"{name}={value}"
                          for name, value in node["counters"].items())
        counters = f"  [{parts}]"
    detail = f" {node['detail']}" if node.get("detail") else ""
    lines = [f"{pad}{node['operator']}{detail}{counters}"]
    for child in node.get("children", ()):
        lines.append(format_plan(child, indent + 1))
    return "\n".join(lines)
