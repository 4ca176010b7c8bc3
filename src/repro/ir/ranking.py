"""The ranking model: tf·idf.

The paper ranks with "a variant of the tf·idf ranking model, derived
from the well founded probabilistic retrieval model of [Hie98]":
score(d) = Σ_t tf(d,t) · idf(t).  Every access path — this exhaustive
ranking, the fragment scans of :mod:`repro.ir.topn` and the cluster
merge — selects its first N with :func:`select_top`: descending score
quantized to 1e-9, deterministic tie-breaks on the document oid (or
url).
"""

from __future__ import annotations

import numpy as np

from repro.monetdb.atoms import Oid
from repro.ir.relations import IrRelations
from repro.ir.text import analyze

__all__ = ["query_term_oids", "rank_tfidf", "Ranking"]

Ranking = list[tuple[Oid, float]]


def query_term_oids(relations: IrRelations, query: str) -> list[Oid]:
    """Stem/stop a query and map it to vocabulary oids (OOV terms drop)."""
    oids: list[Oid] = []
    for term in analyze(query):
        oid = relations.term_oid(term)
        if oid is not None:
            oids.append(oid)
    return oids


#: below this many candidates one full sort is cheaper than the
#: partition's fixed cost (EXPERIMENTS E33: they break even at ~450)
_PARTITION_FROM = 512


def select_top(raw: np.ndarray, docs: np.ndarray, n: int | None,
               keys=()) -> np.ndarray:
    """Positions of the first ``n`` candidates (all when ``None``) in
    the canonical order: score quantized to 1e-9 descending — so a
    1-ulp difference between access paths never flips a tie — then
    doc oid ascending.

    ``keys`` go before the canonical order: ``(column, descending)``
    pairs over the candidates, primary first; a ``None`` column is the
    quantized score.  Without keys, a small ``n`` of many candidates is
    a partition at the n-th largest quantized score plus a sort of the
    candidates at or above it, ties included — O(candidates), not a
    full sort.
    """
    quantized = np.round(raw, 9)
    if keys or n is None or n < 1 \
            or len(raw) <= max(4 * n, _PARTITION_FROM):
        columns = [docs, -quantized]  # np.lexsort: the last key leads
        for column, descending in reversed(keys):
            column = quantized if column is None else column
            columns.append(-column if descending else column)
        return np.lexsort(columns)[:n]
    nth = np.partition(quantized, len(raw) - n)[len(raw) - n]
    near = np.flatnonzero(quantized >= nth)
    return near[np.lexsort((docs[near], -quantized[near]))[:n]]


def rank_tfidf(relations: IrRelations, query: str,
               n: int | None = 10) -> Ranking:
    """Exact tf·idf ranking over the full TF relation.

    Scatter-adds each query term's packed postings column in query-term
    order (a repeated term contributes again; each doc occurs at most
    once per term), then selects the first ``n`` under the canonical
    quantized order (:func:`select_top`).
    """
    index = relations.postings_index()
    universe = len(index.doc_ids)
    acc = np.zeros(universe)
    touched = np.zeros(universe, dtype=bool)
    for term_oid in query_term_oids(relations, query):
        packed = index.by_term.get(int(term_oid))
        if packed is None:
            continue
        weight = relations.idf(term_oid)
        dense = packed.dense_view()
        acc[dense] += packed.weights_view() * weight
        touched[dense] = True
    selected = np.flatnonzero(touched)
    docs = np.frombuffer(index.doc_ids, dtype=np.int64)[selected]
    raw = acc[selected]
    top = select_top(raw, docs, n)
    return list(zip(docs[top].tolist(), raw[top].tolist()))
