"""The Monet XML model: path-based, DTD-less XML storage (paper Figs 9-12).

Public surface:

* :class:`~repro.xmlstore.store.XmlStore` — the storage facade,
* :mod:`~repro.xmlstore.model` — the document tree model,
* :func:`~repro.xmlstore.sax.parse_document` / ``iter_events`` — parsing,
* :func:`~repro.xmlstore.writer.serialize` — serialisation,
* :mod:`~repro.xmlstore.pathexpr` — path expressions,
* :class:`~repro.xmlstore.generic.GenericStore` — the baseline mapping.
"""

from repro.xmlstore.generic import GenericStore
from repro.xmlstore.model import Element, Text, element, isomorphic
from repro.xmlstore.pathexpr import PathExpression, PathResult, parse_path
from repro.xmlstore.pathsummary import PathNode, PathSummary
from repro.xmlstore.sax import iter_events, parse_document
from repro.xmlstore.shredder import BulkLoader, LoadStats, shred_tree
from repro.xmlstore.store import XmlStore
from repro.xmlstore.writer import serialize

__all__ = [
    "Element", "Text", "element", "isomorphic",
    "parse_document", "iter_events", "serialize",
    "PathExpression", "PathResult", "parse_path",
    "PathNode", "PathSummary",
    "BulkLoader", "LoadStats", "shred_tree",
    "XmlStore", "GenericStore",
]
