"""Boolean/phrase/range evaluation of a parsed query against the IR
relations.

:func:`compile_query` turns a :class:`~repro.query.ast.ParsedQuery`
into a :class:`CompiledQuery` — the *match set* (which documents
satisfy the boolean predicate, phrase adjacency via the positional
postings, numeric ranges via the vocabulary) plus the flat *scoring
entries* the structured top-N scan accumulates
(:func:`repro.ir.topn.topn_structured`).  Match evaluation runs once,
scalar, up front; the columnar scan and its test oracle then consume
the identical sets, which is what keeps their rankings bit-identical.

Fields map onto the conceptual level's document naming: the engine
indexes every Hypertext attribute under ``class:key:attribute``, so a
document's *field* is its attribute segment and its *class* the first
segment (plain urls have neither).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.ir.relations import url_segments
from repro.query.ast import And, Filter, Node, Not, Or, ParsedQuery, \
    Phrase, Range, Term

__all__ = ["ScoringEntry", "CompiledQuery", "compile_query",
           "doc_field_of", "doc_class_of", "filters_to_nodes"]


def doc_field_of(url: str) -> str:
    """The attribute segment of an engine-indexed url ('' otherwise)."""
    return url_segments(url)[1]


def doc_class_of(url: str) -> str:
    """The class segment of an engine-indexed url ('' otherwise)."""
    return url_segments(url)[0]


@dataclass(frozen=True)
class ScoringEntry:
    """One tf·idf accumulation the structured scan performs.

    ``docs`` restricts which documents this entry may score (fielded
    terms and phrase members); ``None`` means unrestricted — the
    entry's postings already are the match set.
    """

    term_oid: int
    weight: float
    docs: frozenset | None = None


@dataclass
class CompiledQuery:
    """Everything the structured top-N scan needs, precomputed.

    ``doc_dense`` is the postings index's own live-document map,
    shared read-only (an index is never mutated once published).
    """

    entries: tuple[ScoringEntry, ...]
    matched: frozenset
    doc_dense: dict
    field_weight: dict = field(default_factory=dict)

    @property
    def allowed(self) -> frozenset:
        """The global doc restriction of the scan (= the match set)."""
        return self.matched


def filters_to_nodes(filters) -> list[Node]:
    """Request-level ``filters`` pairs as match-only AST nodes.

    ``(field, "lo-hi")`` with numeric bounds becomes a :class:`Range`;
    anything else an equality — a fielded term (wrapped in
    :class:`Filter` so it restricts without scoring).
    """
    from repro.query.parser import _RANGE_RE, _word_node
    nodes: list[Node] = []
    for name, spec in filters:
        spec = str(spec)
        match = _RANGE_RE.match(spec)
        if match and (match.group(1) or match.group(2)):
            low = float(match.group(1)) if match.group(1) else None
            high = float(match.group(2)) if match.group(2) else None
            nodes.append(Filter(Range(field=name, low=low, high=high)))
            continue
        leaf = _word_node(spec)
        if leaf is None:
            raise QueryError(
                f"filter {name!r}={spec!r} analyzes to nothing "
                "(stop words only)")
        from repro.query.ast import with_field
        nodes.append(Filter(with_field(leaf, name)))
    return nodes


class _Evaluator:
    def __init__(self, relations):
        self.relations = relations
        # the live document set and the url-segment maps hang on the
        # postings index: built once, patched with it, shared read-only
        self.index = relations.postings_index()
        self.field_of = self.index.doc_field

    # -- matching ---------------------------------------------------------

    def _term_docs(self, text: str) -> set[int]:
        oid = self.relations.term_oid(text)
        if oid is None:
            return set()
        packed = self.index.by_term.get(int(oid))
        if packed is None:
            return set()
        return {int(doc) for doc in packed.docs}

    def _restrict_field(self, docs: set[int], name: str | None) -> set[int]:
        if name is None:
            return docs
        return {doc for doc in docs if self.field_of.get(doc) == name}

    def match(self, node: Node) -> set[int]:
        if isinstance(node, Term):
            return self._restrict_field(self._term_docs(node.text),
                                        node.field)
        if isinstance(node, Phrase):
            return self._match_phrase(node)
        if isinstance(node, Range):
            return self._match_range(node)
        if isinstance(node, Not):
            return self.index.doc_dense.keys() - self.match(node.child)
        if isinstance(node, Filter):
            return self.match(node.child)
        if isinstance(node, And):
            matched = self.match(node.children[0])
            for child in node.children[1:]:
                if not matched:
                    break
                matched &= self.match(child)
            return matched
        if isinstance(node, Or):
            matched: set[int] = set()
            for child in node.children:
                matched |= self.match(child)
            return matched
        raise QueryError(f"unknown query node {type(node).__name__}")

    def _match_phrase(self, phrase: Phrase) -> set[int]:
        packeds = []
        for word in phrase.words:
            oid = self.relations.term_oid(word)
            packed = self.index.by_term.get(int(oid)) \
                if oid is not None else None
            if packed is None:
                return set()  # out-of-vocabulary word: no phrase match
            packeds.append(packed)
        if any(not packed.has_positions for packed in packeds):
            # pre-v2 pairs carry no positions; refuse to guess adjacency
            return set()
        row_of = [{int(doc): row for row, doc in enumerate(packed.docs)}
                  for packed in packeds]
        candidates = set(row_of[0])
        for rows in row_of[1:]:
            candidates &= rows.keys()
        matched: set[int] = set()
        for doc in candidates:
            starts = packeds[0].positions_at(row_of[0][doc])
            rest = [set(packed.positions_at(rows[doc]))
                    for packed, rows in zip(packeds[1:], row_of[1:])]
            for start in starts:
                if all(start + offset + 1 in positions
                       for offset, positions in enumerate(rest)):
                    matched.add(doc)
                    break
        return self._restrict_field(matched, phrase.field)

    def _match_range(self, node: Range) -> set[int]:
        matched: set[int] = set()
        for oid, term in self.relations.T:
            if not term.isdigit():
                continue
            value = float(term)
            if node.low is not None and value < node.low:
                continue
            if node.high is not None and value > node.high:
                continue
            packed = self.index.by_term.get(int(oid))
            if packed is not None:
                matched |= {int(doc) for doc in packed.docs}
        return self._restrict_field(matched, node.field)

    # -- scoring entries --------------------------------------------------

    def collect_entries(self, node: Node,
                        out: list[tuple[int, float, frozenset | None]]):
        if isinstance(node, (Not, Filter, Range)):
            return  # negated/filter-only subtrees never score
        if isinstance(node, Term):
            oid = self.relations.term_oid(node.text)
            if oid is None:
                return
            docs = frozenset(self.match(node)) if node.field else None
            out.append((int(oid), node.boost, docs))
            return
        if isinstance(node, Phrase):
            matched = frozenset(self.match(node))
            if not matched:
                return
            for word in node.words:
                oid = self.relations.term_oid(word)
                if oid is not None:
                    out.append((int(oid), node.boost, matched))
            return
        for child in node.children:
            self.collect_entries(child, out)


def compile_query(relations, parsed: ParsedQuery, *,
                  field_boosts: tuple[tuple[str, float], ...] = (),
                  filters: tuple[tuple[str, str], ...] = ()) -> CompiledQuery:
    """Evaluate one parsed query against the relations.

    ``field_boosts`` are request-level per-field score multipliers
    (``title^4 abstract^3``); ``filters`` are request-level match-only
    restrictions ANDed with the query tree.  Raises
    :class:`~repro.errors.QueryError` when nothing in the request can
    match (an all-stop-word query without filters).
    """
    root = parsed.root
    extra = filters_to_nodes(tuple(filters))
    if root is None and not extra:
        raise QueryError("query contains no searchable terms "
                         "(stop words analyze away)")
    if extra:
        parts = ([root] if root is not None else []) + extra
        root = parts[0] if len(parts) == 1 else And(tuple(parts))
    evaluator = _Evaluator(relations)
    relations.refresh_idf()
    matched = frozenset(evaluator.match(root))

    raw_entries: list[tuple[int, float, frozenset | None]] = []
    evaluator.collect_entries(root, raw_entries)
    # merge duplicates (the same term reachable twice with the same
    # restriction) by summing weights, then freeze a deterministic order
    merged: dict[tuple[int, frozenset | None], float] = {}
    for term_oid, weight, docs in raw_entries:
        key = (term_oid, docs)
        merged[key] = merged.get(key, 0.0) + weight
    entries = tuple(sorted(
        (ScoringEntry(term_oid=term_oid, weight=weight, docs=docs)
         for (term_oid, docs), weight in merged.items()),
        key=lambda entry: (entry.term_oid, entry.weight,
                           -1 if entry.docs is None else len(entry.docs))))

    boost_of = dict(field_boosts)
    field_weight: dict[int, float] = {}
    if boost_of:
        for doc, name in evaluator.field_of.items():
            weight = boost_of.get(name)
            if weight is not None:
                field_weight[doc] = float(weight)

    return CompiledQuery(entries=entries, matched=matched,
                         doc_dense=evaluator.index.doc_dense,
                         field_weight=field_weight)
