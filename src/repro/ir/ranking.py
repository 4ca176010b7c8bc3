"""Ranking models: tf·idf and the probabilistic model it derives from.

The paper supports "a variant of the tf·idf ranking model, derived from
the well founded probabilistic retrieval model of [Hie98]" (Hiemstra's
linguistically motivated language model).  Both are provided:

* :func:`rank_tfidf` — score(d) = Σ_t tf(d,t) · idf(t),
* :func:`rank_hiemstra` — score(d) = Σ_t log(1 + (λ·tf·C)/((1-λ)·cf·|d|)),
  the log-space form of Π (λ P(t|d) + (1-λ) P(t|C)) with the
  document-independent factor dropped.

Results are sorted by descending score with deterministic tie-breaks on
the document oid.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.monetdb.atoms import Oid
from repro.ir.relations import IrRelations
from repro.ir.text import analyze

__all__ = ["query_term_oids", "rank_tfidf", "rank_hiemstra", "Ranking"]

import math

Ranking = list[tuple[Oid, float]]


def query_term_oids(relations: IrRelations, query: str) -> list[Oid]:
    """Stem/stop a query and map it to vocabulary oids (OOV terms drop)."""
    oids: list[Oid] = []
    for term in analyze(query):
        oid = relations.term_oid(term)
        if oid is not None:
            oids.append(oid)
    return oids


def _sorted_ranking(scores: dict[Oid, float], n: int | None) -> Ranking:
    # quantized sort key, the one the top-N kernels use: a 1-ulp
    # difference between summation orders must not flip a float tie
    ranking = sorted(scores.items(),
                     key=lambda item: (-round(item[1], 9), item[0]))
    return ranking if n is None else ranking[:n]


def rank_tfidf(relations: IrRelations, query: str,
               n: int | None = 10) -> Ranking:
    """Exact tf·idf ranking over the full TF relation.

    Scatter-adds each query term's packed postings column in query-term
    order (a repeated term contributes again; each doc occurs at most
    once per term), then sorts under the canonical quantized order.
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
    if not len(selected):
        return []
    docs = np.frombuffer(index.doc_ids, dtype=np.int64)[selected]
    raw = acc[selected]
    order = np.lexsort((docs, -np.round(raw, 9)))
    if n is not None:
        order = order[:n]
    return [(int(docs[i]), float(raw[i])) for i in order]


def rank_hiemstra(relations: IrRelations, query: str, n: int | None = 10,
                  smoothing: float = 0.15) -> Ranking:
    """Hiemstra's language-model ranking ([Hie98])."""
    if not 0.0 < smoothing < 1.0:
        raise ValueError("smoothing must lie strictly between 0 and 1")
    collection_length = max(relations.collection_length, 1)
    scores: dict[Oid, float] = defaultdict(float)
    doc_lengths: dict[Oid, int] = {}
    for term_oid in query_term_oids(relations, query):
        postings = relations.postings(term_oid)
        collection_frequency = sum(tf for _, tf in postings)
        if collection_frequency == 0:
            continue
        for doc, tf in postings:
            length = doc_lengths.get(doc)
            if length is None:
                length = max(relations.document_length(doc), 1)
                doc_lengths[doc] = length
            odds = (smoothing * tf * collection_length) / (
                (1.0 - smoothing) * collection_frequency * length)
            scores[doc] += math.log1p(odds)
    return _sorted_ranking(scores, n)
