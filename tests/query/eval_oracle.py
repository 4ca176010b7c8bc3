"""The per-document query evaluator: the oracle the mask evaluator must
equal.

This is ``repro.query.eval``'s ``_Evaluator`` and ``compile_query`` as
they were before evaluation went set-at-a-time — Python ``set``s of doc
oids per node, phrases decoded posting by posting, ranges by a walk of
the whole vocabulary — plus the schema-2 execution core of
``IrEngine._structured`` over it (url per hit by ``D.find``, facets by
``Counter``).  Three adaptations, none of them a change of semantics:

* a posting's positions are read here from its pair's row of the pair
  relations (``tests/kernels/postings_oracle.py``'s ``pair_rows``;
  ``PackedPostings.positions_at`` is gone);
* a document's field comes from its ``ir:D`` url (the index no longer
  keeps a ``doc_field`` map);
* ranges read numbers with ``str.isdecimal`` (the fix of the crash on a
  ``'²'`` token: ``isdigit`` is true for it, ``float`` refuses it).

It lives here, not in production, so the mask evaluator has one plain
reference to be compared against.
"""

from collections import Counter

from repro.errors import QueryError
from tests.query.sort_oracle import _sort_pairs
from repro.ir.relations import url_segments
from repro.query.ast import And, Filter, Node, Not, Or, Phrase, Range, Term
from repro.query.eval import filters_to_nodes

from tests.kernels.postings_oracle import pair_rows
from tests.kernels.topn_oracle import structured_scores


class _Evaluator:
    def __init__(self, relations):
        self.relations = relations
        self.index = relations.postings_index()
        self.field_of = {int(doc): url_segments(url)[1]
                         for doc, url in relations.D}
        # (doc, term) -> the positions of its pair
        self.positions: dict[tuple[int, int], list[int]] = {
            (doc, term): positions
            for _, doc, term, _, positions in pair_rows(relations)}

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
        packeds, oids = [], []
        for word in phrase.words:
            oid = self.relations.term_oid(word)
            packed = self.index.by_term.get(int(oid)) \
                if oid is not None else None
            if packed is None:
                return set()  # out-of-vocabulary word: no phrase match
            packeds.append(packed)
            oids.append(int(oid))
        candidates = set.intersection(*({int(doc) for doc in packed.docs}
                                        for packed in packeds))
        matched: set[int] = set()
        for doc in candidates:
            starts = self.positions[doc, oids[0]]
            rest = [set(self.positions[doc, oid]) for oid in oids[1:]]
            for start in starts:
                if all(start + offset + 1 in positions
                       for offset, positions in enumerate(rest)):
                    matched.add(doc)
                    break
        return self._restrict_field(matched, phrase.field)

    def _match_range(self, node: Range) -> set[int]:
        matched: set[int] = set()
        for oid, term in self.relations.T:
            if not term.isdecimal():
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


def compile_query(relations, parsed, *, field_boosts=(), filters=()):
    """``(entries, matched, field_weight)``: entries as ``(term_oid,
    weight, frozenset | None)`` in the compiled order, the matched doc
    set, and a doc -> boost map."""
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
    merged: dict[tuple[int, frozenset | None], float] = {}
    for term_oid, weight, docs in raw_entries:
        key = (term_oid, docs)
        merged[key] = merged.get(key, 0.0) + weight
    entries = tuple(sorted(
        ((term_oid, weight, docs)
         for (term_oid, docs), weight in merged.items()),
        key=lambda entry: (entry[0], entry[1],
                           -1 if entry[2] is None else len(entry[2]))))

    boost_of = dict(field_boosts)
    field_weight: dict[int, float] = {}
    if boost_of:
        for doc, name in evaluator.field_of.items():
            weight = boost_of.get(name)
            if weight is not None:
                field_weight[doc] = float(weight)
    return entries, matched, field_weight


def _facet_counts(relations, matched, facet_names):
    index_of = {"class": 0, "field": 1, "attribute": 1}
    url_of = {int(doc): url for doc, url in relations.D}
    facets = []
    for name in facet_names:
        if name not in index_of:
            raise QueryError(f"unknown facet {name!r} for content modes; "
                             "expected 'class' or 'attribute'")
        counts = Counter(url_segments(url_of[doc])[index_of[name]]
                         for doc in matched)
        del counts[""]  # plain urls have no segments
        facets.append((name, tuple(sorted(
            counts.items(), key=lambda item: (-item[1], item[0])))))
    return tuple(facets)


def execute(engine, request) -> tuple:
    """A schema-2 request's ``(hits, total, facets)`` the per-document
    way: hits as ``(url, score)`` pairs."""
    from repro.query import parse_rich_query

    relations = engine.relations
    entries, matched, field_weight = compile_query(
        relations, parse_rich_query(request.query),
        field_boosts=request.boosts, filters=request.filters)
    limit = request.limit if request.limit is not None \
        else request.policy.n
    need = len(matched) if request.sort else request.offset + limit
    result = structured_scores(engine.fragments(), entries, matched,
                               field_weight, max(need, 1))
    pairs = [(relations.doc_url(doc), score)
             for doc, score in result.ranking]
    if request.sort:
        pairs = _sort_pairs(pairs, request.sort)
    return (pairs[request.offset:request.offset + limit], len(matched),
            _facet_counts(relations, matched, request.facets))
