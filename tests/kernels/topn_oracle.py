"""The scalar scorers: the oracle every columnar kernel must equal.

These are the per-posting Python loops of ``repro.ir.topn`` and
``repro.ir.ranking`` as they were before the kernels became the only
scorer.  They live here, not in production, so each kernel has one
plain reference to be compared against — rankings with scores by
``==`` and the work accounting (``tuples_read``, ``fragments_read``,
``stopped_early``) exactly.

Accumulation order matches the kernels': query terms are visited in the
iteration order of ``set(query_terms) & fragment.term_oids``, the order
a compiled plan freezes, and each document occurs at most once per
term's postings, so a scatter-add performs the same float additions.
A term repeated in the query weighs ``idf × count``, its bound too.
Results carry ``details["kernel"] == "scalar"`` so a comparison can
never mistake one side for the other.
"""

from collections import Counter, defaultdict

import numpy as np

from repro.ir.ranking import query_term_oids
from repro.ir.topn import TopNResult

from tests.kernels.postings_oracle import pairs


def _rank(scores, n):
    # the canonical total order: score quantized to 1e-9 desc, then oid;
    # quantized as production does (``np.round``, not ``round``: the two
    # disagree on a half-way score)
    ranking = sorted(scores.items(),
                     key=lambda item: (-np.round(item[1], 9), item[0]))
    return ranking if n is None else ranking[:n]


def _postings(fragments, fragment, term):
    return pairs(fragments.doc_ids, fragment.packed[term])


def topn_fragmented(fragments, query_terms, n, prune=True, refine=False):
    """Safe-pruned (optionally refined, or exhaustive) top-N."""
    result = TopNResult(ranking=[], details={"kernel": "scalar"})
    scores = defaultdict(float)
    wanted = set(query_terms)
    counts = Counter(query_terms)

    remaining = defaultdict(float)
    for fragment in fragments:
        for term in wanted & fragment.term_oids:
            remaining[term] += fragment.max_score_bound(term) * counts[term]

    stop_index = len(fragments.fragments)
    for position, fragment in enumerate(fragments):
        touched = wanted & fragment.term_oids
        if not touched and prune:
            # bound bookkeeping only; nothing read from this fragment
            continue
        result.fragments_read += 1
        for term in touched:
            weight = fragment.idf[term] * counts[term]
            postings = _postings(fragments, fragment, term)
            result.tuples_read += len(postings)
            for doc, tf in postings:
                scores[doc] += tf * weight
            remaining[term] -= fragment.max_score_bound(term) * counts[term]
        if not prune:
            continue
        total_remaining = sum(remaining[term] for term in wanted)
        if total_remaining <= 0.0:
            result.stopped_early = True
            stop_index = position + 1
            break
        if len(scores) < n:
            continue
        ranking = _rank(scores, len(scores))
        nth_score = ranking[n - 1][1]
        if nth_score <= total_remaining:
            continue
        runners_up = ranking[n:]
        ceiling = max((score for _, score in runners_up), default=0.0)
        # strict: an unseen or runner-up document can never even tie
        if nth_score > ceiling + total_remaining:
            result.stopped_early = True
            stop_index = position + 1
            break

    if refine and result.stopped_early:
        members = {doc for doc, _ in _rank(scores, n)}
        for fragment in fragments.fragments[stop_index:]:
            for term in wanted & fragment.term_oids:
                weight = fragment.idf[term] * counts[term]
                postings = _postings(fragments, fragment, term)
                result.tuples_read += len(postings)
                for doc, tf in postings:
                    if doc in members:
                        scores[doc] += tf * weight

    result.ranking = _rank(scores, n)
    return result


def topn_structured(fragments, compiled, n):
    """Exhaustive top-N over a compiled schema-2 query.

    The compiled masks and boost column are read back into doc-oid
    sets and a per-doc weight map first; the loop is
    :func:`structured_scores`.
    """
    doc_ids = fragments.doc_ids

    def docs_of(mask):
        return {doc_ids[slot] for slot in np.flatnonzero(mask)}

    entries = [(entry.term_oid, entry.weight,
                None if entry.docs is None else docs_of(entry.docs))
               for entry in compiled.entries]
    field_weight = {doc_ids[slot]: float(weight)
                    for slot, weight in enumerate(compiled.field_weight)}
    return structured_scores(fragments, entries, docs_of(compiled.matched),
                             field_weight, n)


def structured_scores(fragments, entries, matched, field_weight, n):
    """The scalar structured scan over ``(term_oid, weight, docs)``
    entries, a matched doc-oid set and a doc -> boost map."""
    result = TopNResult(ranking=[], details={"kernel": "scalar"})
    grouped = {}
    for entry in entries:
        grouped.setdefault(entry[0], []).append(entry)
    wanted = {entry[0] for entry in entries}
    # every matched doc is a candidate from the start: match-only docs
    # appear with score 0.0
    scores = {doc: 0.0 for doc in matched}
    result.fragments_read = len(fragments.fragments)
    for fragment in fragments:
        for term in wanted & fragment.term_oids:
            idf = fragment.idf[term]
            postings = _postings(fragments, fragment, term)
            for _, entry_weight, restriction in grouped[term]:
                weight = idf * entry_weight
                result.tuples_read += len(postings)
                for doc, tf in postings:
                    if doc not in scores:
                        continue  # outside the boolean match set
                    if restriction is not None and doc not in restriction:
                        continue
                    scores[doc] += tf * weight * field_weight.get(doc, 1.0)
    result.ranking = _rank(scores, n)
    return result


def topn_cutoff(fragments, query_terms, n, keep_fragments):
    """Approximate top-N over the first ``keep_fragments`` fragments."""
    result = TopNResult(ranking=[], exact=False,
                        details={"kernel": "scalar"})
    scores = defaultdict(float)
    wanted = set(query_terms)
    counts = Counter(query_terms)
    for fragment in fragments.fragments[:keep_fragments]:
        touched = wanted & fragment.term_oids
        if not touched:
            continue
        result.fragments_read += 1
        for term in touched:
            weight = fragment.idf[term] * counts[term]
            postings = _postings(fragments, fragment, term)
            result.tuples_read += len(postings)
            for doc, tf in postings:
                scores[doc] += tf * weight
    result.ranking = _rank(scores, n)
    return result


def rank_tfidf(relations, query, n=10):
    """Full-relation tf·idf; a repeated query term contributes again."""
    scores = defaultdict(float)
    for term_oid in query_term_oids(relations, query):
        weight = relations.idf(term_oid)
        index = relations.postings_index()
        for doc, tf in pairs(index.doc_ids,
                             index.by_term.get(int(term_oid))):
            scores[doc] += tf * weight
    return _rank(scores, n)
