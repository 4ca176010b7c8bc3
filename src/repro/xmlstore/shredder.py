"""The Monet transform: shredding XML into path relations (Definition 1).

Two entry points:

* :func:`shred_tree` — transform an already-built :class:`Element` tree,
* :class:`BulkLoader` — the paper's SAX-based bulkload, which never
  materialises a syntax tree: it keeps a stack of (schema-tree context,
  oid, rank counter) entries, so its tracked state is O(document height)
  rather than O(document size).  The loader counts its peak stack depth
  and insert statements, which benchmark E4 reports.

Relation scheme (see :mod:`repro.xmlstore.pathsummary` for names):

====================  ======================  =========================
relation              columns                 one tuple per
====================  ======================  =========================
``sys``               (root oid, root tag)    document root
``path``              (parent oid, child oid) element or pcdata edge
``path[attr]``        (oid, str)              attribute instance
``path[cdata]``       (oid, str)              character-data node
``path[rank]``        (oid, int)              node (sibling position)
====================  ======================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import XmlStoreError
from repro.monetdb.atoms import Oid
from repro.monetdb.catalog import Catalog
from repro.xmlstore.model import Element, Text
from repro.xmlstore.pathsummary import PCDATA, PathNode, PathSummary
from repro.xmlstore.sax import Characters, EndElement, SaxEvent, StartElement, iter_events

__all__ = ["SYS_RELATION", "LoadStats", "BulkLoader", "shred_tree"]

SYS_RELATION = "sys"


@dataclass
class LoadStats:
    """Counters the bulkload benchmarks report."""

    nodes: int = 0
    inserts: int = 0
    peak_stack_depth: int = 0
    new_relations: int = 0

    def merge(self, other: "LoadStats") -> None:
        self.nodes += other.nodes
        self.inserts += other.inserts
        self.peak_stack_depth = max(self.peak_stack_depth,
                                    other.peak_stack_depth)
        self.new_relations += other.new_relations


@dataclass
class _Frame:
    """One open element on the bulkload stack."""

    context: PathNode
    oid: Oid
    next_rank: int = 0
    field_default: None = field(default=None, repr=False)


class BulkLoader:
    """Streaming loader: SAX events in, path-relation inserts out.

    With ``record_extents`` the loader also records each element's
    *extent* — the positions of its start and end tags in the event
    stream — in ``path[start]``/``path[end]`` relations: "we can easily
    extend the bulkload procedure to record extents of elements, i.e.
    the textual position of a start tag and its corresponding end tag."
    Extents give containment tests (is node A inside node B?) without
    walking edges.
    """

    def __init__(self, catalog: Catalog, summary: PathSummary,
                 record_extents: bool = False):
        self.catalog = catalog
        self.summary = summary
        self.stats = LoadStats()
        self.record_extents = record_extents
        self._position = 0
        # per-relation (bat, heads, tails) append buffers: the loader
        # batches one document's pairs and flushes them through the
        # packed BAT.append_many path instead of per-pair insert()
        self._buffers: dict[str, tuple] = {}

    # -- low-level insert helpers --------------------------------------

    def _insert(self, relation_name: str, head_type: str, tail_type: str,
                head, tail) -> None:
        buffer = self._buffers.get(relation_name)
        if buffer is None:
            before = len(self.catalog)
            bat = self.catalog.ensure(relation_name, head_type, tail_type)
            if len(self.catalog) != before:
                self.stats.new_relations += 1
            buffer = self._buffers[relation_name] = (bat, [], [])
        buffer[1].append(head)
        buffer[2].append(tail)
        self.stats.inserts += 1

    def _flush(self) -> None:
        """Drain the append buffers into their BATs (batch validated)."""
        for bat, heads, tails in self._buffers.values():
            if heads:
                bat.append_many(heads, tails)
                heads.clear()
                tails.clear()

    def _enter_node(self, frame_stack: list[_Frame], context: PathNode,
                    parent: _Frame | None) -> Oid:
        oid = self.catalog.oids.new()
        self.stats.nodes += 1
        if parent is None:
            self._insert(SYS_RELATION, "oid", "str", oid, context.tag)
        else:
            self._insert(context.edge_relation(), "oid", "oid",
                         parent.oid, oid)
            self._insert(context.rank_relation(), "oid", "int",
                         oid, parent.next_rank)
            parent.next_rank += 1
        return oid

    # -- event consumption ------------------------------------------------

    def load_events(self, events: Iterable[SaxEvent]) -> Oid:
        """Consume one document's event stream; return the root oid.

        Pairs buffer per relation and flush in one batch append per
        relation when the stream ends (also on error, so a failed load
        leaves exactly the pairs it produced, like the eager path did).
        """
        try:
            return self._load_events(events)
        finally:
            self._flush()

    def _load_events(self, events: Iterable[SaxEvent]) -> Oid:
        stack: list[_Frame] = []
        root_oid: Oid | None = None
        for event in events:
            self._position += 1
            if isinstance(event, StartElement):
                if stack:
                    context = stack[-1].context.child(event.tag)
                    parent = stack[-1]
                else:
                    if root_oid is not None:
                        raise XmlStoreError("multiple roots in event stream")
                    context = self.summary.root(event.tag)
                    parent = None
                oid = self._enter_node(stack, context, parent)
                if parent is None:
                    root_oid = oid
                for name, value in event.attributes:
                    context.attribute_names.add(name)
                    self._insert(context.attribute_relation(name),
                                 "oid", "str", oid, value)
                if self.record_extents:
                    self._insert(context.path + "[start]", "oid", "int",
                                 oid, self._position)
                stack.append(_Frame(context, oid))
                if len(stack) > self.stats.peak_stack_depth:
                    self.stats.peak_stack_depth = len(stack)
            elif isinstance(event, EndElement):
                if not stack:
                    raise XmlStoreError(
                        f"unmatched end tag </{event.tag}> in event stream")
                frame = stack.pop()
                if self.record_extents:
                    self._insert(frame.context.path + "[end]", "oid",
                                 "int", frame.oid, self._position)
                if frame.context.tag != event.tag:
                    raise XmlStoreError(
                        f"mismatched end tag </{event.tag}>, "
                        f"open element is <{frame.context.tag}>")
            elif isinstance(event, Characters):
                if not stack:
                    raise XmlStoreError("character data outside the root")
                parent = stack[-1]
                context = parent.context.child(PCDATA)
                oid = self._enter_node(stack, context, parent)
                self._insert(context.cdata_relation(), "oid", "str",
                             oid, event.value)
            else:  # pragma: no cover - defensive
                raise XmlStoreError(f"unknown SAX event: {event!r}")
        if stack:
            raise XmlStoreError(
                f"event stream ended with <{stack[-1].context.tag}> open")
        if root_oid is None:
            raise XmlStoreError("empty event stream")
        return root_oid

    def load_text(self, text: str) -> Oid:
        """Shred an XML string without building a tree."""
        return self.load_events(iter_events(text))

    def load_tree(self, root: Element) -> Oid:
        """Shred an element tree by replaying it as events."""
        return self.load_events(_tree_events(root))


def _tree_events(root: Element) -> Iterable[SaxEvent]:
    """Replay a tree as SAX events (iterative, document order)."""
    work: list[tuple[str, object]] = [("open", root)]
    while work:
        action, node = work.pop()
        if action == "close":
            yield EndElement(node.tag)  # type: ignore[union-attr]
        elif isinstance(node, Text):
            yield Characters(node.value)
        else:
            assert isinstance(node, Element)
            yield StartElement(node.tag, tuple(node.attributes.items()))
            work.append(("close", node))
            for child in reversed(node.children):
                work.append(("open", child))


def shred_tree(catalog: Catalog, summary: PathSummary, root: Element
               ) -> tuple[Oid, LoadStats]:
    """Monet-transform one element tree; return (root oid, load stats)."""
    loader = BulkLoader(catalog, summary)
    oid = loader.load_tree(root)
    return oid, loader.stats
