"""Parse trees: the FDE's output and the meta-index's content.

"The result of the parser is a comprehensive description of the
productions used in the parsing process: the parse tree.  This parse
tree contains all the tokens found in the input sentence placed in their
hierarchical context."  Parse trees can be dumped as XML documents
("the parse tree can be dumped as an XML-document"), which is how the
logical level hands its meta-data to the physical level.
"""

from __future__ import annotations

import enum
from typing import Any, Iterator

from repro.featuregrammar.versions import Version
from repro.xmlstore.model import Element

__all__ = ["NodeKind", "ParseNode", "tree_to_xml"]


class NodeKind(enum.Enum):
    ATOM = "atom"
    VARIABLE = "variable"
    DETECTOR = "detector"
    LITERAL = "literal"
    REFERENCE = "reference"


class ParseNode:
    """One node of a parse tree."""

    __slots__ = ("name", "kind", "children", "parent", "value", "valid",
                 "detector_version", "reference_key")

    def __init__(self, name: str, kind: NodeKind,
                 value: Any = None,
                 detector_version: Version | None = None,
                 reference_key: Any = None):
        self.name = name
        self.kind = kind
        self.children: list[ParseNode] = []
        self.parent: ParseNode | None = None
        self.value = value
        self.valid = True
        self.detector_version = detector_version
        self.reference_key = reference_key

    # -- structure ---------------------------------------------------------

    def add(self, child: "ParseNode") -> "ParseNode":
        child.parent = self
        self.children.append(child)
        return child

    def ancestors(self) -> Iterator["ParseNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def walk(self) -> Iterator["ParseNode"]:
        """Depth-first, document order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find_all(self, name: str) -> list["ParseNode"]:
        """All descendants-or-self with the given symbol name."""
        return [node for node in self.walk() if node.name == name]

    def child(self, name: str) -> "ParseNode | None":
        for node in self.children:
            if node.name == name:
                return node
        return None

    def children_named(self, name: str) -> list["ParseNode"]:
        return [node for node in self.children if node.name == name]

    # -- values ------------------------------------------------------------

    def leaf_value(self) -> Any:
        """The value of this node if atomic, else of its single atom leaf."""
        if self.value is not None or self.kind in (NodeKind.ATOM,
                                                   NodeKind.LITERAL):
            return self.value
        leaves = [node for node in self.walk()
                  if node.kind in (NodeKind.ATOM, NodeKind.LITERAL)
                  and node.value is not None]
        if len(leaves) == 1:
            return leaves[0].value
        return None

    def invalidate(self) -> None:
        """Mark this node and its whole subtree invalid."""
        for node in self.walk():
            node.valid = False

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        value = f"={self.value!r}" if self.value is not None else ""
        return f"ParseNode({self.kind.value}:{self.name}{value})"


def _value_to_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def tree_to_xml(node: ParseNode) -> Element:
    """Dump a parse tree as an XML document for the physical level."""
    attributes: dict[str, str] = {}
    if node.kind == NodeKind.DETECTOR and node.detector_version is not None:
        attributes["version"] = str(node.detector_version)
    if node.kind == NodeKind.REFERENCE:
        attributes["ref"] = _value_to_text(node.reference_key)
    if not node.valid:
        attributes["valid"] = "false"
    xml = Element(node.name, attributes)
    if node.value is not None and not node.children:
        # atoms, literals, and valueful whitebox detectors (their truth)
        xml.add_text(_value_to_text(node.value))
    for child in node.children:
        xml.append(tree_to_xml(child))
    return xml
