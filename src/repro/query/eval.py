"""Boolean/phrase/range evaluation of a parsed query against the IR
relations, set-at-a-time.

:func:`compile_query` turns a :class:`~repro.query.ast.ParsedQuery`
into a :class:`CompiledQuery` — the *match set* (which documents
satisfy the boolean predicate) plus the flat *scoring entries* the
structured top-N scan accumulates (:func:`repro.ir.topn.topn_structured`).
Every AST node is evaluated once, into a bool mask over the postings
index's dense slots, with bulk operators only:

* a term scatters its postings' ``dense`` column;
* a field compares the index's per-slot field codes;
* ``AND`` / ``OR`` / ``NOT`` are ``&`` / ``|`` / ``live & ~``;
* a range bisects the sorted numeric vocabulary;
* a phrase intersects its words' ``(slot, position - k)`` keys, read
  from the decoded position columns.

The columnar scan and its test oracle consume the identical masks; the
per-document evaluator this replaced is ``tests/query/eval_oracle.py``.

Fields map onto the conceptual level's document naming: the engine
indexes every Hypertext attribute under ``class:key:attribute``, so a
document's *field* is its attribute segment and its *class* the first
segment (plain urls have neither).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    terms and phrase members), as a bool mask over the index's slots;
    ``None`` means unrestricted — the entry's postings already are the
    match set.
    """

    term_oid: int
    weight: float
    docs: np.ndarray | None = None


@dataclass
class CompiledQuery:
    """Everything the structured top-N scan needs, precomputed.

    ``matched`` (bool) and ``field_weight`` (the per-document field
    boost, 1.0 where none applies) are columns over the slots of the
    postings index the query was compiled against — the universe of
    the fragment set of the same generation.  Masks are shared between
    entries and the match set: read them, never write them.
    """

    entries: tuple[ScoringEntry, ...]
    matched: np.ndarray
    field_weight: np.ndarray


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
    """Match masks of one query's nodes, each evaluated once."""

    def __init__(self, relations):
        self.relations = relations
        # the slot universe and its per-slot columns hang on the
        # postings index of one generation, shared read-only
        self.index = relations.postings_index()
        self.size = len(self.index.doc_ids)
        self._masks: dict[int, np.ndarray] = {}

    # -- matching ---------------------------------------------------------

    def _postings(self, word: str):
        oid = self.relations.term_oid(word)
        return None if oid is None else self.index.by_term.get(int(oid))

    def _scatter(self, packeds) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        for packed in packeds:
            if packed is not None:
                mask[packed.dense_view()] = True
        return mask

    def _restrict_field(self, mask: np.ndarray,
                        name: str | None) -> np.ndarray:
        if name is None:
            return mask
        codes, names = self.index.segment_codes("field")
        return mask & (codes == names.get(name, -1))

    def match(self, node: Node) -> np.ndarray:
        key = id(node)  # the tree outlives the evaluator: ids are stable
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = self._match(node)
        return mask

    def _match(self, node: Node) -> np.ndarray:
        if isinstance(node, Term):
            return self._restrict_field(
                self._scatter([self._postings(node.text)]), node.field)
        if isinstance(node, Phrase):
            return self._restrict_field(self._match_phrase(node.words),
                                        node.field)
        if isinstance(node, Range):
            oids = self.relations.numeric_terms(node.low, node.high)
            return self._restrict_field(self._scatter(
                map(self.index.by_term.get, map(int, oids))), node.field)
        if isinstance(node, Not):
            return self.index.live_mask() & ~self.match(node.child)
        if isinstance(node, Filter):
            return self.match(node.child)
        if isinstance(node, And):
            matched = self.match(node.children[0])
            for child in node.children[1:]:
                if not matched.any():
                    break
                matched = matched & self.match(child)
            return matched
        if isinstance(node, Or):
            matched = np.zeros(self.size, dtype=bool)
            for child in node.children:
                matched = matched | self.match(child)
            return matched
        raise QueryError(f"unknown query node {type(node).__name__}")

    def _match_phrase(self, words: tuple[str, ...]) -> np.ndarray:
        """Documents holding ``words`` adjacently: word ``k``'s
        occurrences as sorted ``slot << 32 | position`` keys, probed at
        ``start + k`` for every start the rarest word allows."""
        mask = np.zeros(self.size, dtype=bool)
        packeds = [self._postings(word) for word in words]
        if any(packed is None for packed in packeds):
            return mask  # an out-of-vocabulary word matches nothing
        keys = []
        for packed in packeds:
            flat, offsets = packed.position_columns()
            slots = np.repeat(packed.dense_view(), np.diff(offsets))
            keys.append(np.sort((slots << 32) | flat, kind="stable"))
        rarest = min(range(len(keys)), key=lambda k: len(keys[k]))
        starts = keys[rarest][(keys[rarest] & 0xFFFFFFFF) >= rarest] \
            - rarest
        for k, column in enumerate(keys):
            if k == rarest or not len(starts):
                continue
            probes = starts + k
            rows = np.minimum(np.searchsorted(column, probes),
                              len(column) - 1)
            starts = starts[column[rows] == probes]
        mask[starts >> 32] = True
        return mask

    # -- scoring entries --------------------------------------------------

    def collect_entries(self, node: Node,
                        out: list[tuple[int, float, np.ndarray | None]]):
        if isinstance(node, (Not, Filter, Range)):
            return  # negated/filter-only subtrees never score
        if isinstance(node, Term):
            oid = self.relations.term_oid(node.text)
            if oid is None:
                return
            docs = self.match(node) if node.field else None
            out.append((int(oid), node.boost, docs))
            return
        if isinstance(node, Phrase):
            matched = self.match(node)
            if not matched.any():
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
    matched = evaluator.match(root)

    raw_entries: list[tuple[int, float, np.ndarray | None]] = []
    evaluator.collect_entries(root, raw_entries)
    # merge duplicates (the same term reachable twice with the same
    # restriction) by summing weights, then freeze a deterministic order
    merged: dict[tuple[int, bytes | None], list] = {}
    for term_oid, weight, docs in raw_entries:
        key = (term_oid, None if docs is None else docs.tobytes())
        merged.setdefault(key, [0.0, docs])[0] += weight
    entries = tuple(sorted(
        (ScoringEntry(term_oid=term_oid, weight=weight, docs=docs)
         for (term_oid, _), (weight, docs) in merged.items()),
        key=lambda entry: (entry.term_oid, entry.weight,
                           -1 if entry.docs is None
                           else int(np.count_nonzero(entry.docs)))))

    field_weight = np.ones(evaluator.size)
    codes, names = evaluator.index.segment_codes("field")
    for name, weight in dict(field_boosts).items():
        if name in names:
            field_weight[codes == names[name]] = float(weight)

    return CompiledQuery(entries=entries, matched=matched,
                         field_weight=field_weight)
