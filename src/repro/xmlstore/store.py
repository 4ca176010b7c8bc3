"""The XmlStore facade: documents in, relations + queries out.

This is the physical level's public face.  Both the conceptual level
(webspace documents) and the logical level (parse trees dumped by the
FDE) "pass on their data in the form of XML documents"; the store shreds
them with the Monet transform, keeps a document registry, answers path
expressions, and supports incremental replacement and deletion — the
"extremely flexible storage method" the dynamic feature grammars need.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from repro.errors import XmlStoreError
from repro.monetdb.atoms import Oid
from repro.monetdb.catalog import Catalog
from repro.monetdb.server import MonetServer
from repro.xmlstore.model import Element
from repro.xmlstore.pathexpr import (PathExpression, PathResult, evaluate,
                                     parse_path, root_of)
from repro.xmlstore.pathsummary import PCDATA, PathNode, PathSummary
from repro.xmlstore.reconstruct import reconstruct
from repro.xmlstore.sax import parse_document
from repro.xmlstore.shredder import SYS_RELATION, BulkLoader, LoadStats

__all__ = ["XmlStore", "ElementRef"]

DOCS_RELATION = "docs"  # (root oid, document key): the persistent registry


class ElementRef(NamedTuple):
    """One stored element: its path-summary node and its oid.

    The bulkloader draws oids in preorder, so within one document
    ascending oid order is document order.
    """

    path: PathNode
    oid: Oid

    @property
    def tag(self) -> str:
        return self.path.tag


_by_oid = attrgetter("oid")


class XmlStore:
    """Path-relation storage for a collection of XML documents."""

    def __init__(self, server: MonetServer | None = None):
        self.server = server or MonetServer("xmlstore")
        self.catalog = self.server.catalog
        self.summary = PathSummary()
        self.stats = LoadStats()
        self._doc_root: dict[str, Oid] = {}
        self._root_doc: dict[Oid, str] = {}
        # bumped on every insert/delete (replace = both): generation
        # stamp for caches keyed on the store's contents
        self.generation = 0
        self._docs = self.catalog.ensure(DOCS_RELATION, "oid", "str")
        # restore the registry and path summary when the catalog was
        # loaded from a snapshot
        for oid, key in self._docs:
            self._doc_root[key] = oid
            self._root_doc[oid] = key
        self._rebuild_summary()

    # -- document registry ---------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._doc_root

    def __len__(self) -> int:
        return len(self._doc_root)

    def document_keys(self) -> list[str]:
        """All registered document keys, sorted."""
        return sorted(self._doc_root)

    def root_oid(self, key: str) -> Oid:
        """Root oid of a registered document."""
        try:
            return self._doc_root[key]
        except KeyError:
            raise XmlStoreError(f"unknown document: {key!r}") from None

    def document_key(self, root_oid: Oid) -> str:
        """Document key for a root oid."""
        try:
            return self._root_doc[root_oid]
        except KeyError:
            raise XmlStoreError(f"unknown root oid: {root_oid!r}") from None

    # -- loading -----------------------------------------------------------

    def insert(self, key: str, document: Element | str) -> Oid:
        """Shred and register one document under ``key``."""
        if key in self._doc_root:
            raise XmlStoreError(f"document already stored: {key!r}")
        loader = BulkLoader(self.catalog, self.summary)
        if isinstance(document, str):
            oid = loader.load_text(document)
        else:
            oid = loader.load_tree(document)
        self.stats.merge(loader.stats)
        self._doc_root[key] = oid
        self._root_doc[oid] = key
        self._docs.insert(oid, key)
        self.generation += 1
        return oid

    def insert_many(self, documents: Iterable[tuple[str, Element | str]]
                    ) -> list[Oid]:
        """Bulk-load many (key, document) pairs."""
        return [self.insert(key, document) for key, document in documents]

    def replace(self, key: str, document: Element | str) -> Oid:
        """Incrementally update a document: delete the old, load the new.

        All-or-nothing: the replacement is validated (parsed and
        trial-shredded into a scratch catalog) *before* the old document
        is deleted, so a malformed replacement raises and leaves the
        store untouched — previously the old document was deleted first
        and a failing insert lost it.
        """
        self.root_oid(key)  # unknown key: raise before any validation work
        if isinstance(document, str):
            document = parse_document(document)
        BulkLoader(Catalog(), PathSummary()).load_tree(document)
        self.delete(key)
        return self.insert(key, document)

    def delete(self, key: str) -> None:
        """Remove one document and all its associations.

        The document's node oids are gathered per relation first, then
        every relation loses its share in one
        :meth:`~repro.monetdb.bat.BAT.delete_heads` batch — the cost
        follows the document, not one pass per node.
        """
        root = self.root_oid(key)
        sys_relation = self.catalog.get(SYS_RELATION)
        root_tag = sys_relation.find(root)
        context = self.summary.get_root(root_tag)
        if context is None:
            raise XmlStoreError(f"path summary lost root {root_tag!r}")
        doomed: dict[str, list[Oid]] = {}
        self._collect_subtree(context, [root], doomed)
        for name, oids in doomed.items():
            self.catalog.get(name).delete_heads(oids)
        sys_relation.delete_head(root)
        self._docs.delete_head(root)
        del self._doc_root[key]
        del self._root_doc[root]
        self.generation += 1

    def _collect_subtree(self, context: PathNode, oids: list[Oid],
                         doomed: dict[str, list[Oid]]) -> None:
        """Add the heads to delete below ``oids`` (instances of
        ``context``) to ``doomed``: relation name -> head oids."""
        names = [context.attribute_relation(name)
                 for name in context.attribute_names]
        if context.is_pcdata():
            names.append(context.cdata_relation())
        for name in names:
            if name in self.catalog:
                doomed.setdefault(name, []).extend(oids)
        for child_context in context.children.values():
            edges = self.catalog.get_or_none(child_context.edge_relation())
            if edges is None:
                continue
            child_oids = [child for oid in oids
                          for child in edges.find_all(oid)]
            if not child_oids:
                continue
            self._collect_subtree(child_context, child_oids, doomed)
            ranks = child_context.rank_relation()
            if ranks in self.catalog:
                doomed.setdefault(ranks, []).extend(child_oids)
            doomed.setdefault(child_context.edge_relation(),
                              []).extend(oids)

    # -- retrieval ---------------------------------------------------------

    def reconstruct(self, key: str) -> Element:
        """Rebuild the original document for a key (inverse mapping)."""
        return reconstruct(self.catalog, self.summary, self.root_oid(key))

    # -- path-relation reads -------------------------------------------
    #
    # A probe that needs a few leaves of a stored tree reads them here
    # instead of reconstructing the tree: the path summary names the
    # only relations that can hold what is asked for, and each call
    # charges the rows it read to ``server``.

    def _children_of(self, node: PathNode, oids: list[Oid]) -> list[Oid]:
        """Child oids at ``node`` of the given parent instances."""
        edges = self.catalog.get_or_none(node.edge_relation())
        if edges is None:
            return []
        return [child for oid in oids for child in edges.find_all(oid)]

    def _descend(self, node: PathNode, oids: list[Oid], enter
                 ) -> Iterator[tuple[PathNode, list[Oid]]]:
        """(path node, instance oids) below ``oids`` at ``node``, for
        every path node with instances for which ``enter`` holds."""
        frontier = [(node, oids)]
        while frontier:
            node, oids = frontier.pop()
            for child in node.children.values():
                if enter(child) and (found := self._children_of(child, oids)):
                    yield child, found
                    frontier.append((child, found))

    def elements(self, key: str, tag: str) -> list[ElementRef]:
        """The elements named ``tag`` in one document, in document order.

        Only path-summary subtrees holding a ``tag`` path are descended,
        so no row of an unrelated path is read.
        """
        root_oid = self.root_oid(key)
        root = self.summary.get_root(self.catalog.get(SYS_RELATION)
                                     .find(root_oid))
        wanted: set[PathNode] = set()
        for node in root.walk():
            if node.tag == tag and not node.is_pcdata():
                while node is not None and node not in wanted:
                    wanted.add(node)
                    node = node.parent
        found = [ElementRef(root, root_oid)] if root.tag == tag else []
        rows = 1  # the document's sys row
        for node, oids in self._descend(root, [root_oid], wanted.__contains__):
            rows += len(oids)
            if node.tag == tag:
                found.extend(ElementRef(node, oid) for oid in oids)
        self.server.charge(rows)
        found.sort(key=_by_oid)
        return found

    def ancestors(self, ref: ElementRef) -> list[ElementRef]:
        """The elements enclosing ``ref``, nearest first, root last."""
        found: list[ElementRef] = []
        node, oid = ref
        while node.parent is not None:
            edges = self.catalog.get(node.edge_relation())
            parents = edges.find_heads(oid)
            if not parents:
                raise XmlStoreError(f"dangling node {oid!r} at {node.path}")
            node, oid = node.parent, parents[0]
            found.append(ElementRef(node, oid))
        self.server.charge(len(found))
        return found

    def children(self, ref: ElementRef,
                 tag: str | None = None) -> list[ElementRef]:
        """Child elements of ``ref`` (only ``tag`` ones if given), in
        document order."""
        found = [ElementRef(child, oid)
                 for child in ref.path.children.values()
                 if not child.is_pcdata() and tag in (None, child.tag)
                 for oid in self._children_of(child, [ref.oid])]
        self.server.charge(len(found))
        found.sort(key=_by_oid)
        return found

    def text(self, ref: ElementRef) -> str:
        """Concatenated direct character data of ``ref``."""
        node = ref.path.get_child(PCDATA)
        if node is None:
            return ""
        oids = self._children_of(node, [ref.oid])
        cdata = self.catalog.get(node.cdata_relation())
        self.server.charge(2 * len(oids))
        return "".join(cdata.find(oid) for oid in oids)

    def deep_text(self, ref: ElementRef) -> str:
        """Concatenated character data of ``ref``'s whole subtree."""
        parts: list[tuple[Oid, str]] = []
        rows = 0
        for node, oids in self._descend(ref.path, [ref.oid],
                                        lambda node: True):
            rows += len(oids)
            if node.is_pcdata():
                cdata = self.catalog.get(node.cdata_relation())
                parts.extend((oid, cdata.find(oid)) for oid in oids)
                rows += len(oids)
        self.server.charge(rows)
        parts.sort()
        return "".join(value for _, value in parts)

    def attribute(self, ref: ElementRef, name: str) -> str | None:
        """The value of one attribute of ``ref``, None when absent."""
        if name not in ref.path.attribute_names:
            return None
        relation = self.catalog.get_or_none(ref.path.attribute_relation(name))
        values = relation.find_all(ref.oid) if relation is not None else []
        self.server.charge(len(values))
        return values[0] if values else None

    def parse(self, text: str) -> Element:
        """Convenience: parse XML text to a tree (no storage)."""
        return parse_document(text)

    def query(self, expr: PathExpression | str) -> PathResult:
        """Evaluate a path expression over all stored documents."""
        return evaluate(self.catalog, self.summary, expr, self.server)

    def paths(self) -> list[str]:
        """The current path summary, as sorted path strings."""
        return self.summary.paths()

    def document_of(self, node: PathNode, oid: Oid) -> str:
        """Document key containing the instance ``oid`` at ``node``."""
        return self.document_key(root_of(self.catalog, node, oid))

    def parse_path(self, source: str) -> PathExpression:
        """Parse a path expression (re-exported for convenience)."""
        return parse_path(source)

    # -- persistence --------------------------------------------------------

    def _rebuild_summary(self) -> None:
        """Re-derive the path summary from the catalog's relation names.

        Relation names *are* paths (plus ``[attr]``/``[rank]``/``[cdata]``
        decorations), so a snapshot needs no separate schema file.
        """
        for name in self.catalog.names():
            if name in (SYS_RELATION, DOCS_RELATION):
                continue
            if name.endswith("]"):
                path, _, decoration = name.rpartition("[")
                decoration = decoration[:-1]
            else:
                path, decoration = name, ""
            parts = path.split("/")
            node = self.summary.root(parts[0])
            for tag in parts[1:]:
                node = node.child(tag)
            if decoration and decoration not in ("rank", "cdata", "start",
                                                 "end"):
                node.attribute_names.add(decoration)

    def save(self, path) -> int:
        """Snapshot the whole store (relations + registry) to one
        column container.

        Returns the number of associations written, which the snapshot
        manifest stores next to the file's checksum.
        """
        from repro.monetdb.persistence import save_catalog
        return save_catalog(self.catalog, path)

    @classmethod
    def load(cls, path, server: MonetServer | None = None) -> "XmlStore":
        """Restore a store from a snapshot written by :meth:`save`."""
        from repro.monetdb.persistence import load_catalog
        server = server or MonetServer("xmlstore")
        server.catalog, _ = load_catalog(path)
        return cls(server)
