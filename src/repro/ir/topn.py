"""Top-N query optimization over idf-ordered fragments.

Two techniques from the paper's query section:

* **Safe pruning** (:func:`topn_fragmented`): fragments are processed in
  descending-idf order while score accumulators grow; processing stops as
  soon as the current top-N is provably final.  The stopping bound uses
  per-fragment ``idf · max_tf`` ceilings per remaining query term — the
  database-style "reducing the braking distance" family ([CK98, DR99]).

* **A-priori cut-off with a quality model** (:func:`topn_cutoff`,
  :func:`quality_degrade`): ignore the low-idf tail fragments outright
  and *estimate/measure* the resulting quality degrade, the cost-quality
  trade-off of [BHC+01] — "IR is inherently uncertain allowing other
  probabilistic query optimization tricks".

Every scan is one columnar kernel: numpy scatter-adds over the
fragments' packed postings columns, following a *physical plan* — the
list of (fragment, term) access steps, compiled per execution (one set
intersection per fragment: cheaper than a lookup that could reuse it).
There is one body per query shape: the bag scan (pruned, refined or
exhaustive), the structured scan, and the cut-off, which is the bag
scan over an idf-ordered prefix.  Each selects its first N — at every
stop test, in the refine pass and for the answer — with
:func:`~repro.ir.ranking.select_top`: a partition at the n-th largest
quantized score plus a sort of the candidates at or above it, ties
included.  A sorted schema-2 page passes its sort keys as columns over
the slots, ordered with the canonical order in one ``lexsort``, so no
match set is ranked whole.  The per-posting loops they replaced
live in ``tests/kernels/topn_oracle.py`` as the reference the
``kernels`` and ``query`` suites compare them against, rankings (scores
included) and work accounting by ``==``: per-term postings hold each
doc at most once, so an unordered scatter-add performs the same float
additions as the sequential loop, and both tie-break through the
canonical quantizer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.monetdb.atoms import Oid
from repro.ir.fragmentation import FragmentSet
from repro.ir.ranking import Ranking, select_top
from repro.telemetry.runtime import get_telemetry

__all__ = ["TopNResult", "topn_fragmented", "topn_structured",
           "topn_cutoff", "quality_degrade"]


@dataclass
class TopNResult:
    """A ranking plus the work accounting the benchmarks report."""

    ranking: Ranking
    fragments_read: int = 0
    tuples_read: int = 0
    exact: bool = True
    stopped_early: bool = False
    details: dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# compiled physical plans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _TopNPlan:
    """The physical access plan of one query over one fragment layout.

    ``steps`` lists, in scan order, each fragment position a query term
    touches together with the touched terms (frozen in one set iteration
    order, so every execution of the plan accumulates in the identical
    sequence).  Weights are *not* baked in: idf is read from the
    executing fragment set, so one plan serves patched (global-idf) and
    unpatched views alike.
    """

    steps: tuple[tuple[int, tuple[int, ...]], ...]


def _compile_plan(fragments: FragmentSet,
                  wanted: set) -> _TopNPlan:
    steps = []
    for position, fragment in enumerate(fragments):
        touched = wanted & fragment.term_oids
        if touched:
            steps.append((position, tuple(touched)))
    return _TopNPlan(steps=tuple(steps))


def topn_fragmented(fragments: FragmentSet, query_terms: list[Oid],
                    n: int, prune: bool = True,
                    refine: bool = False) -> TopNResult:
    """Exact top-N over fragments, stopping early when provably final.

    After each fragment, ``remaining[t]`` bounds the score any document
    can still gain from query term ``t`` in unread fragments.  The scan
    stops when the N-th accumulated score strictly exceeds (a) the total
    remaining bound (no unseen document can enter) and (b) every
    runner-up's accumulated score plus the remaining bound (no seen
    document can overtake).

    The guarantee is the exact top-N *set*: members' scores may still be
    partial when the scan stops early, so their relative order can
    differ from the exhaustive ranking (the classic top-N cut-off
    trade-off of [CK98]).  ``refine=True`` adds a completion pass that
    reads the query terms' tail postings *for the member documents
    only*, making the returned scores exact (the distributed plan needs
    exact local scores before merging); ``prune=False`` is exhaustive.
    """
    telemetry = get_telemetry()
    with telemetry.tracer.span("ir.topn", n=n, prune=prune,
                               refine=refine) as span:
        wanted, counts = _distinct(query_terms)
        result = _topn_scan_kernel(fragments, wanted, counts, n, prune,
                                   refine, _compile_plan(fragments, wanted))
        telemetry.metrics.counter("kernel.rows").add(result.tuples_read)
        result.details["kernel"] = "columnar"
        span.set_attributes(tuples_read=result.tuples_read,
                            fragments_read=result.fragments_read,
                            stopped_early=result.stopped_early,
                            kernel="columnar")
    telemetry.metrics.counter("ir.topn_queries").add(1)
    telemetry.metrics.counter("ir.topn_tuples_read").add(result.tuples_read)
    return result


def _distinct(query_terms: list[Oid]) -> tuple[set, dict]:
    """The query's distinct terms and each one's multiplicity: a term
    repeated in the query weighs ``idf × count`` (its bound too), as
    ``rank_tfidf`` adds it once per occurrence."""
    wanted = set(query_terms)
    counts = dict.fromkeys(wanted, 0)
    for term in query_terms:
        counts[term] += 1
    return wanted, counts


def _doc_column(fragments: FragmentSet) -> np.ndarray:
    """The dense document universe as an int64 column (zero-copy)."""
    return np.frombuffer(fragments.doc_ids, dtype=np.int64) \
        if fragments.doc_ids else np.empty(0, dtype=np.int64)


def _topn_scan_kernel(fragments: FragmentSet, wanted: set, counts: dict,
                      n: int, prune: bool, refine: bool,
                      plan: _TopNPlan) -> TopNResult:
    """The bag scan: scatter-add scoring over packed postings.

    The bound bookkeeping is plain Python floats in plan-step order, and
    each stop test runs against the quantized interim ranking; only the
    per-posting accumulation and the selection are vectorized.  A term
    weighs ``idf × counts[term]`` (exact for a count of 1).
    """
    result = TopNResult(ranking=[])
    frags = fragments.fragments
    doc_column = _doc_column(fragments)
    universe = len(doc_column)
    acc = np.zeros(universe)
    touched_mask = np.zeros(universe, dtype=bool)

    remaining: dict[int, float] = defaultdict(float)
    for position, terms in plan.steps:
        fragment = frags[position]
        for term in terms:
            remaining[term] += fragment.max_score_bound(term) * counts[term]

    if not prune:
        # an exhaustive scan counts every fragment as read
        result.fragments_read = len(frags)

    stop_step = len(plan.steps)
    stopped_at = len(frags)
    for step_index, (position, terms) in enumerate(plan.steps):
        fragment = frags[position]
        if prune:
            result.fragments_read += 1
        for term in terms:
            weight = fragment.idf[term] * counts[term]
            packed = fragment.packed[term]
            result.tuples_read += len(packed)
            dense = packed.dense_view()
            acc[dense] += packed.weights_view() * weight
            touched_mask[dense] = True
            remaining[term] -= fragment.max_score_bound(term) * counts[term]
        if not prune:
            continue
        total_remaining = sum(remaining[term] for term in wanted)
        if total_remaining <= 0.0:
            result.stopped_early = True
            stop_step = step_index + 1
            stopped_at = position + 1
            break
        selected = np.flatnonzero(touched_mask)
        if len(selected) < n:
            continue
        raw = acc[selected]
        top = select_top(raw, doc_column[selected], n)
        nth_score = float(raw[top[n - 1]])
        if nth_score <= total_remaining:
            continue
        others = np.ones(len(raw), dtype=bool)
        others[top] = False
        ceiling = float(raw[others].max()) if others.any() else 0.0
        # strict: an unseen or runner-up document can never even tie
        if nth_score > ceiling + total_remaining:
            result.stopped_early = True
            stop_step = step_index + 1
            stopped_at = position + 1
            break

    if refine and result.stopped_early:
        selected = np.flatnonzero(touched_mask)
        member_flags = np.zeros(universe, dtype=bool)
        member_flags[selected[select_top(acc[selected],
                                         doc_column[selected], n)]] = True
        for position, terms in plan.steps[stop_step:]:
            if position < stopped_at:
                continue
            fragment = frags[position]
            for term in terms:
                weight = fragment.idf[term] * counts[term]
                packed = fragment.packed[term]
                result.tuples_read += len(packed)
                dense = packed.dense_view()
                hit = member_flags[dense]
                if hit.any():
                    acc[dense[hit]] += packed.weights_view()[hit] * weight

    result.ranking = _ranking(acc, doc_column,
                              np.flatnonzero(touched_mask), n)
    return result


def _ranking(acc, doc_column, selected, n: int, keys=(),
             offset: int = 0) -> Ranking:
    """The first ``n`` of the ``selected`` slots under
    :func:`~repro.ir.ranking.select_top`, past the first ``offset``, as
    ``(doc, raw score)``; ``keys`` hold columns over all slots."""
    raw, docs = acc[selected], doc_column[selected]
    top = select_top(raw, docs, n, [
        (None if column is None else column[selected], descending)
        for column, descending in keys])[offset:]
    return list(zip(docs[top].tolist(), raw[top].tolist()))


# ----------------------------------------------------------------------
# structured (schema-2) queries: boolean/phrase/fielded/boosted
# ----------------------------------------------------------------------

def topn_structured(fragments: FragmentSet, compiled, n: int,
                    keys=(), offset: int = 0) -> TopNResult:
    """Exhaustive top-N over a compiled structured query.

    ``compiled`` is a :class:`~repro.query.eval.CompiledQuery`: the
    boolean/phrase/range match set was evaluated up front (one mask
    per node) and this scan only accumulates the scoring entries over
    documents in ``compiled.matched`` — fielded entries additionally
    restricted to their own ``docs`` masks, every contribution
    multiplied by the per-document field boost.  Match-only documents
    (filter hits whose terms score nothing, e.g. a pure ``NOT`` or range
    query) rank with score 0.0 in doc-oid order.  ``keys`` order the
    matched documents before the canonical order — a sorted page —
    as ``(column over the slots, descending)`` pairs, primary first, a
    ``None`` column standing for the quantized score.  The ranking holds
    the first ``n`` past the first ``offset``: a page, made only of its
    own rows.

    Unlike :func:`topn_fragmented` the scan is exhaustive — early-stop
    bounds under per-entry doc restrictions and per-doc boosts would
    need per-restriction ceilings to stay safe, and structured queries
    are rare enough that correctness beats the saved fragments.
    """
    telemetry = get_telemetry()
    with telemetry.tracer.span("ir.topn_structured", n=n) as span:
        wanted = {entry.term_oid for entry in compiled.entries}
        result = _structured_scan_kernel(fragments, compiled, n, keys,
                                         offset,
                                         _compile_plan(fragments, wanted))
        telemetry.metrics.counter("kernel.rows").add(result.tuples_read)
        matched = int(np.count_nonzero(compiled.matched))
        result.details["kernel"] = "columnar"
        result.details["matched"] = matched
        span.set_attributes(tuples_read=result.tuples_read,
                            matched=matched, kernel="columnar")
    telemetry.metrics.counter("ir.topn_structured_queries").add(1)
    return result


def _structured_scan_kernel(fragments: FragmentSet, compiled, n: int,
                            keys, offset: int, plan: _TopNPlan
                            ) -> TopNResult:
    """Masked scatter-adds in plan-step order, one per scoring entry,
    each contribution associated as ``(tf · weight) · boost``."""
    result = TopNResult(ranking=[])
    frags = fragments.fragments
    grouped: dict[int, list] = {}
    for entry in compiled.entries:
        grouped.setdefault(entry.term_oid, []).append(entry)
    doc_column = _doc_column(fragments)
    acc = np.zeros(len(doc_column))
    # every matched doc is a candidate from the start: match-only docs
    # must appear, at score 0.0
    allowed_mask = compiled.matched
    boost_column = compiled.field_weight

    result.fragments_read = len(frags)
    for position, terms in plan.steps:
        fragment = frags[position]
        for term in terms:
            idf = fragment.idf[term]
            packed = fragment.packed[term]
            dense = packed.dense_view()
            weights = packed.weights_view()
            for entry in grouped[term]:
                weight = idf * entry.weight
                result.tuples_read += len(packed)
                hit = allowed_mask[dense]
                if entry.docs is not None:
                    hit = hit & entry.docs[dense]
                if hit.any():
                    rows = dense[hit]
                    acc[rows] += (weights[hit] * weight) \
                        * boost_column[rows]
    result.ranking = _ranking(acc, doc_column,
                              np.flatnonzero(allowed_mask), n, keys, offset)
    return result


def topn_cutoff(fragments: FragmentSet, query_terms: list[Oid], n: int,
                keep_fragments: int) -> TopNResult:
    """Approximate top-N reading only the first ``keep_fragments``.

    The exhaustive bag scan over the kept idf-ordered prefix; only the
    fragments a query term touches count as read.
    """
    kept = FragmentSet(fragments=fragments.fragments[:keep_fragments],
                       doc_ids=fragments.doc_ids)
    wanted, counts = _distinct(query_terms)
    plan = _compile_plan(kept, wanted)
    result = _topn_scan_kernel(kept, wanted, counts, n, False, False, plan)
    result.fragments_read = len(plan.steps)
    result.exact = False
    return result


def quality_degrade(exact: Ranking, approximate: Ranking) -> float:
    """Quality of an approximate ranking: overlap@N with the exact one.

    1.0 means the approximate top-N found every exact top-N document;
    0.0 means it found none — the paper's "quality degrade resulting from
    a-priori ignoring fragments with lower idf", measured.
    """
    if not exact:
        return 1.0
    exact_docs = {doc for doc, _ in exact}
    found = sum(1 for doc, _ in approximate if doc in exact_docs)
    return found / len(exact_docs)
