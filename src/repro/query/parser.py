"""Recursive-descent parser of the rich query surface (schema 2).

Grammar (whitespace-separated; operators are uppercase-only so the
lowercase words stay ordinary — ``and`` is a stop word, ``AND`` is an
operator)::

    query    := or_expr
    or_expr  := and_expr (("OR")? and_expr)*     # adjacency means OR
    and_expr := unary ("AND" unary)*
    unary    := "NOT" unary | atom
    atom     := "(" or_expr ")" boost?
              | FIELD ":" value
              | '"' words '"' boost?
              | WORD boost?
    value    := RANGE | WORD boost? | '"' words '"' boost?
              | "(" or_expr ")" boost?           # field distributes
    RANGE    := NUM "-" NUM | NUM "-" | "-" NUM  # year:1990-2001
    boost    := "^" NUM                          # title:open^4

Adjacency compiles to OR so a plain term list keeps exactly the v1
bag-of-words semantics (docs matching any term, scored by the summed
tf·idf) — except that ``NOT`` attaching by adjacency binds as AND
(``tennis NOT golf`` reads as ``tennis AND NOT golf``; an OR there
would match nearly the whole collection, which nobody means).

Words are pushed through the full analyzer: stop words vanish (a query
of only stop words parses to an empty tree), stems apply, and a word
that tokenizes to several terms (``mother-in-law``) becomes an implicit
phrase.

Nesting — parenthesised groups and ``NOT`` chains — is bounded by
:data:`MAX_NESTING`: the parser and every tree walk after it recurse
per level, so a nesting bomb is a typed :class:`QueryError` (a
``bad_request``), not a ``RecursionError``.
"""

from __future__ import annotations

import re

from repro.errors import QueryError
from repro.ir.text import analyze
from repro.query.ast import And, Node, Not, Or, ParsedQuery, Phrase, \
    Range, Term, with_boost, with_field

__all__ = ["MAX_NESTING", "parse_rich_query"]

#: deepest parenthesis / ``NOT`` nesting a query may use
MAX_NESTING = 64

_SPECIAL = frozenset('()"^:')
_RANGE_RE = re.compile(r"^(\d+(?:\.\d+)?)?-(\d+(?:\.\d+)?)?$")


def _lex(source: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    index, length = 0, len(source)
    while index < length:
        char = source[index]
        if char.isspace():
            index += 1
        elif char in "():":
            tokens.append((char, None))
            index += 1
        elif char == '"':
            closing = source.find('"', index + 1)
            if closing < 0:
                raise QueryError(
                    f"unterminated phrase quote in query {source!r}")
            tokens.append(("phrase", source[index + 1:closing]))
            index = closing + 1
        elif char == "^":
            stop = index + 1
            while stop < length and (source[stop].isdigit()
                                     or source[stop] == "."):
                stop += 1
            if stop == index + 1:
                raise QueryError("boost '^' must be followed by a number")
            try:
                tokens.append(("^", float(source[index + 1:stop])))
            except ValueError as exc:
                raise QueryError(
                    f"malformed boost {source[index:stop]!r}") from exc
            index = stop
        else:
            stop = index
            while stop < length and not source[stop].isspace() \
                    and source[stop] not in _SPECIAL:
                stop += 1
            tokens.append(("word", source[index:stop]))
            index = stop
    return tokens


def _word_node(word: str) -> Node | None:
    """A raw query word as an AST leaf (``None`` when it stops away)."""
    terms = analyze(word)
    if not terms:
        return None
    if len(terms) == 1:
        return Term(terms[0])
    return Phrase(tuple(terms))  # "mother-in-law" -> implicit phrase


def _phrase_node(text: str) -> Node | None:
    words = tuple(analyze(text))
    if not words:
        return None
    if len(words) == 1:
        return Term(words[0])  # a one-word "phrase" is just a term
    return Phrase(words)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.position = 0
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self) -> tuple[str, object] | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _next(self) -> tuple[str, object]:
        token = self._peek()
        if token is None:
            raise QueryError(f"unexpected end of query {self.source!r}")
        self.position += 1
        return token

    def _at_operator(self, name: str) -> bool:
        token = self._peek()
        return token is not None and token[0] == "word" \
            and token[1] == name

    def _at_atom_start(self) -> bool:
        token = self._peek()
        if token is None:
            return False
        if token[0] in ("word", "phrase", "("):
            return not (token[0] == "word" and token[1] in ("AND", "OR"))
        return False

    # -- grammar ----------------------------------------------------------

    def parse(self) -> ParsedQuery:
        root = self._or_expr() if self.tokens else None
        trailing = self._peek()
        if trailing is not None:
            raise QueryError(
                f"unexpected {trailing[1] or trailing[0]!r} in query "
                f"{self.source!r}")
        return ParsedQuery(root=root)

    def _nested(self, parse):
        """Run ``parse`` one nesting level deeper, within the bound."""
        if self.depth == MAX_NESTING:
            raise QueryError(f"query nests deeper than {MAX_NESTING} "
                             f"levels: {self.source[:80]!r}")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def _or_expr(self) -> Node | None:
        children = [self._and_expr()]
        while True:
            if self._at_operator("OR"):
                self._next()
                children.append(self._and_expr())
            elif self._at_operator("NOT"):
                # adjacency with NOT binds as AND (see module docstring)
                negated = self._and_expr()
                previous = children.pop()
                if previous is None:
                    children.append(negated)
                elif negated is None:
                    children.append(previous)
                else:
                    children.append(And((previous, negated)))
            elif self._at_atom_start():
                children.append(self._and_expr())
            else:
                break
        kept = [child for child in children if child is not None]
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else Or(tuple(kept))

    def _and_expr(self) -> Node | None:
        children = [self._unary()]
        while self._at_operator("AND"):
            self._next()
            children.append(self._unary())
        kept = [child for child in children if child is not None]
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else And(tuple(kept))

    def _unary(self) -> Node | None:
        if self._at_operator("NOT"):
            self._next()
            child = self._nested(self._unary)
            return Not(child) if child is not None else None
        return self._atom()

    def _maybe_boost(self, node: Node | None) -> Node | None:
        token = self._peek()
        if token is not None and token[0] == "^":
            self._next()
            if node is not None:
                node = with_boost(node, token[1])
        return node

    def _atom(self) -> Node | None:
        kind, value = self._next()
        if kind == "(":
            node = self._nested(self._or_expr)
            closing = self._next()
            if closing[0] != ")":
                raise QueryError(f"expected ')' in query {self.source!r}")
            return self._maybe_boost(node)
        if kind == "phrase":
            return self._maybe_boost(_phrase_node(value))
        if kind != "word":
            raise QueryError(
                f"unexpected {value or kind!r} in query {self.source!r}")
        if value in ("AND", "OR"):
            raise QueryError(
                f"dangling operator {value!r} in query {self.source!r}")
        token = self._peek()
        if token is not None and token[0] == ":":
            self._next()
            return self._fielded(value.lower())
        return self._maybe_boost(_word_node(value))

    def _fielded(self, field: str) -> Node | None:
        kind, value = self._next()
        if kind == "phrase":
            node = self._maybe_boost(_phrase_node(value))
        elif kind == "(":
            node = self._nested(self._or_expr)
            closing = self._next()
            if closing[0] != ")":
                raise QueryError(f"expected ')' in query {self.source!r}")
            node = self._maybe_boost(node)
        elif kind == "word":
            match = _RANGE_RE.match(value)
            if match and (match.group(1) or match.group(2)):
                low = float(match.group(1)) if match.group(1) else None
                high = float(match.group(2)) if match.group(2) else None
                node = Range(field=None, low=low, high=high)
            else:
                node = self._maybe_boost(_word_node(value))
        else:
            raise QueryError(
                f"field {field!r} needs a value in query {self.source!r}")
        if node is None:
            return None
        return with_field(node, field)


def parse_rich_query(source: str) -> ParsedQuery:
    """Parse one schema-2 query string into a :class:`ParsedQuery`.

    Every syntax error is a :class:`~repro.errors.QueryError` (the wire
    layer maps those to HTTP 400).  A query whose every word analyzes
    away (stop words) parses to ``ParsedQuery(root=None)``; whether
    that is an error is the caller's call — the engine rejects it
    unless request-level filters supply a match set.
    """
    return _Parser(source).parse()
