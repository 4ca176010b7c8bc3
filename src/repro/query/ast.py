"""The typed AST of the rich query language (schema 2).

The surface syntax (:mod:`repro.query.parser`) compiles to this small
closed set of immutable nodes; everything downstream — boolean/phrase
evaluation (:mod:`repro.query.eval`), the structured top-N scan
(:func:`repro.ir.topn.topn_structured`) — works on the AST, never on
query strings.  :meth:`ParsedQuery.token` is the canonical hashable
shape: two queries share a token exactly when they are the same
structured query.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

__all__ = ["Term", "Phrase", "Range", "Not", "And", "Or", "Filter",
           "Node", "ParsedQuery", "with_field", "with_boost"]


@dataclass(frozen=True)
class Term:
    """One analyzed (stopped, stemmed) term, optionally fielded/boosted."""

    text: str
    field: str | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class Phrase:
    """A quoted phrase: the analyzed words must occur adjacently.

    Adjacency is over the *analyzed* token sequence — stop words are
    removed before positions are numbered at indexing time, so
    ``"winner of the open"`` and ``"winner open"`` match the same
    documents.
    """

    words: tuple[str, ...]
    field: str | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class Range:
    """A numeric range over indexed number tokens (``year:1990-2001``).

    Matches documents containing any numeric term within the bounds
    (in ``field``, when given).  Ranges filter; they never score.
    ``None`` bounds are open ends (``year:1990-``).
    """

    field: str | None
    low: float | None
    high: float | None


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Filter:
    """A match-only wrapper: the subtree restricts, but never scores.

    Request-level ``filters`` are wrapped in this before being ANDed
    with the user's query, so an equality filter (a fielded term) does
    not leak tf·idf contributions into the ranking.
    """

    child: "Node"


Node = Union[Term, Phrase, Range, Not, And, Or, Filter]


def with_field(node: Node, field: str) -> Node:
    """Push a field qualifier down to every unfielded leaf (``f:(a b)``)."""
    if isinstance(node, (Term, Phrase, Range)):
        return node if node.field else replace(node, field=field)
    if isinstance(node, Not):
        return Not(with_field(node.child, field))
    if isinstance(node, Filter):
        return Filter(with_field(node.child, field))
    children = tuple(with_field(child, field) for child in node.children)
    return type(node)(children)


def with_boost(node: Node, factor: float) -> Node:
    """Multiply the boost of every scoring leaf (``(a b)^2``)."""
    if isinstance(node, (Term, Phrase)):
        return replace(node, boost=node.boost * factor)
    if isinstance(node, Range):
        return node  # ranges filter, they never score
    if isinstance(node, Not):
        return Not(with_boost(node.child, factor))
    if isinstance(node, Filter):
        return node  # filter subtrees never score
    children = tuple(with_boost(child, factor) for child in node.children)
    return type(node)(children)


def _token(node: Node) -> tuple:
    if isinstance(node, Term):
        return ("t", node.text, node.field, node.boost)
    if isinstance(node, Phrase):
        return ("p", node.words, node.field, node.boost)
    if isinstance(node, Range):
        return ("r", node.field, node.low, node.high)
    if isinstance(node, Not):
        return ("!", _token(node.child))
    if isinstance(node, Filter):
        return ("f", _token(node.child))
    tag = "&" if isinstance(node, And) else "|"
    return (tag,) + tuple(_token(child) for child in node.children)


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed rich query: the boolean tree (``None`` when the source
    analyzed away entirely, e.g. a stop-word-only query)."""

    root: Node | None

    def token(self) -> tuple:
        """The canonical hashable shape: equal exactly for equal queries."""
        return _token(self.root) if self.root is not None else ("empty",)
