"""The path summary and schema tree (paper Fig. 12).

"The set of all paths in a document is called its Path Summary, which
plays a central role in our query engine."  Each node of the schema tree
represents one root-to-node path and therefore one family of relations in
the store:

* ``<path>``          — the edge relation ``(parent oid, child oid)``,
* ``<path>[<attr>]``  — one attribute relation per attribute name,
* ``<path>[cdata]``   — character data of pcdata nodes,
* ``<path>[rank]``    — sibling rank, keeping the document topology.

The schema tree doubles as the bulkloader's context structure: "when we
encounter a start tag, we look at the sons of the current context",
avoiding per-tag hashing of full path strings.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["PathNode", "PathSummary", "PCDATA"]

PCDATA = "pcdata"


class PathNode:
    """One node of the schema tree: a distinct root-to-node path."""

    __slots__ = ("tag", "parent", "children", "path", "attribute_names")

    def __init__(self, tag: str, parent: "PathNode | None"):
        self.tag = tag
        self.parent = parent
        self.children: dict[str, PathNode] = {}
        self.path = tag if parent is None else f"{parent.path}/{tag}"
        self.attribute_names: set[str] = set()

    # -- relation names -------------------------------------------------

    def edge_relation(self) -> str:
        """Name of the (parent oid, child oid) relation for this path."""
        return self.path

    def attribute_relation(self, name: str) -> str:
        """Name of the (oid, value) relation of one attribute."""
        return f"{self.path}[{name}]"

    def cdata_relation(self) -> str:
        """Name of the (oid, string) relation holding character data."""
        return f"{self.path}[cdata]"

    def rank_relation(self) -> str:
        """Name of the (oid, int) relation holding sibling ranks."""
        return f"{self.path}[rank]"

    # -- navigation -------------------------------------------------------

    def child(self, tag: str) -> "PathNode":
        """Return the child path node for ``tag``, creating it if new."""
        node = self.children.get(tag)
        if node is None:
            node = PathNode(tag, self)
            self.children[tag] = node
        return node

    def get_child(self, tag: str) -> "PathNode | None":
        """Child path node for ``tag`` or None (no creation)."""
        return self.children.get(tag)

    def is_pcdata(self) -> bool:
        """Whether this path denotes character-data nodes."""
        return self.tag == PCDATA

    def walk(self) -> Iterator["PathNode"]:
        """All path nodes of the subtree, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PathNode({self.path})"


class PathSummary:
    """The forest of root paths observed in the stored documents."""

    def __init__(self) -> None:
        self._roots: dict[str, PathNode] = {}

    def root(self, tag: str) -> PathNode:
        """Return the root path node for ``tag``, creating it if new."""
        node = self._roots.get(tag)
        if node is None:
            node = PathNode(tag, None)
            self._roots[tag] = node
        return node

    def get_root(self, tag: str) -> PathNode | None:
        """Root path node for ``tag`` or None (no creation)."""
        return self._roots.get(tag)

    def roots(self) -> list[PathNode]:
        """All root path nodes."""
        return list(self._roots.values())

    def walk(self) -> Iterator[PathNode]:
        """All path nodes in the summary."""
        for root in self._roots.values():
            yield from root.walk()

    def paths(self) -> list[str]:
        """All path strings, sorted (the Path Summary of the paper)."""
        return sorted(node.path for node in self.walk())

    def find(self, path: str) -> PathNode | None:
        """Look up a path node by its exact path string."""
        parts = path.split("/")
        node = self._roots.get(parts[0])
        for tag in parts[1:]:
            if node is None:
                return None
            node = node.children.get(tag)
        return node

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())
