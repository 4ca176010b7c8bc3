"""Horizontal fragmentation of TF/IDF on descending idf.

"Since terms with a high idf ... are expected to be more significant to
the ranking ... we fragment on descending idf.  Moving these less
interesting but more expensive terms to the end of the fragment set
allows us to exploit this knowledge later on during query optimization."

A :class:`FragmentSet` materialises that layout: terms ordered by
descending idf are split into fragments of (approximately) equal TF tuple
counts, each fragment carrying its own TF slice and its IDF slice — the
per-term idf the top-N optimizer's bounds need beside each term's max
tf, which the shared postings carry.  A layout is derived from one
published generation (:func:`fragment_index`), and the generation's
:class:`~repro.ir.relations.PostingsIndex` memoizes it
(:meth:`~repro.ir.relations.PostingsIndex.fragments`).
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.errors import BatError
from repro.monetdb.atoms import Oid
from repro.ir.relations import IrRelations, PackedPostings, PostingsIndex
from repro.telemetry.runtime import get_telemetry

__all__ = ["Fragment", "FragmentSet", "fragment_by_idf"]


@dataclass
class Fragment:
    """One horizontal fragment of the TF relation.

    ``packed`` shares the :class:`~repro.ir.relations.PackedPostings`
    columns of the relations' postings index, which is what the scoring
    kernels read; every term in ``term_oids`` has an entry, looked up
    in the index on first use.
    """

    index: int
    term_oids: set[Oid]
    idf: Mapping[Oid, float]
    packed: Mapping[Oid, PackedPostings]
    tuples: int = 0

    def max_score_bound(self, term_oid: Oid) -> float:
        """Upper bound on any document's score gain from this term here."""
        return self.idf[term_oid] * self.packed[term_oid].max_tf

    def min_idf(self) -> float:
        """Smallest idf of any term stored in this fragment."""
        return min(self.idf.values()) if self.idf else 0.0


class _FragmentPostings(Mapping):
    """One fragment's terms (the keys of its ``idf``, in order) mapped
    to the postings index's entries, so a layout makes no postings."""

    def __init__(self, terms: dict, by_term: Mapping):
        self._terms, self._by_term = terms, by_term

    def __getitem__(self, term: Oid) -> PackedPostings:
        if term not in self._terms:
            raise KeyError(term)
        return self._by_term[term]

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)


@dataclass
class FragmentSet:
    """The ordered fragment list (highest-idf terms first).

    ``doc_ids`` is the dense document universe (position -> doc oid)
    the packed postings' ``dense`` columns index into, shared with the
    postings index that built this set — it sizes the kernels'
    accumulators and may hold dead slots of removed documents, which no
    posting points at (an empty set has an empty universe).
    """

    fragments: list[Fragment] = field(default_factory=list)
    doc_ids: array = field(default_factory=lambda: array("q"))

    def __len__(self) -> int:
        return len(self.fragments)

    def __iter__(self):
        return iter(self.fragments)

    def locate_term(self, term_oid: Oid) -> int | None:
        """Index of the fragment holding a term, or None."""
        for fragment in self.fragments:
            if term_oid in fragment.term_oids:
                return fragment.index
        return None

    def total_tuples(self) -> int:
        return sum(fragment.tuples for fragment in self.fragments)


def fragment_by_idf(relations: IrRelations, fragment_count: int,
                    order: str = "idf") -> FragmentSet:
    """A fresh fragment set over the relations' current generation:
    :func:`fragment_index` over its postings index, unmemoized.

    ``order`` selects the fragmentation criterium: ``"idf"`` is the
    paper's descending-idf layout; ``"random"`` is the ablation baseline
    (a deterministic shuffle by term oid) used by benchmark E6 to show
    that pruning only pays off under the idf ordering.
    """
    return fragment_index(relations.postings_index(), fragment_count, order)


def fragment_index(index: PostingsIndex, fragment_count: int,
                   order: str = "idf") -> FragmentSet:
    """Lay one published generation's terms out in fragments.

    Derived on columns: the generation's document frequencies
    (``index.df``) give each term's idf (``1/df``, the floats
    :meth:`~repro.ir.relations.IrRelations.idf` returns) and posting
    count, one sort orders them and one running sum places the cuts.
    Its scalar reference is the oracle in ``tests/kernels``.
    """
    if fragment_count < 1:
        raise BatError("fragment_count must be >= 1")
    if order not in ("idf", "random"):
        raise BatError(f"unknown fragmentation order: {order!r}")
    df = index.df
    oids = np.fromiter(df, np.int64, len(df))
    sizes = np.fromiter(df.values(), np.int64, len(df))
    telemetry = get_telemetry()
    telemetry.metrics.counter("ir.fragment_rebuilds").add(1)
    with telemetry.tracer.span("ir.fragment_build") as span:
        idf = 1.0 / sizes
        if order == "idf":  # descending idf, ties by ascending oid
            ranked = np.lexsort((oids, -idf))
        else:  # stable, so equal keys keep the IDF row order; the
            # uint64 product wraps mod 2**64, which mod 2**32 absorbs
            ranked = np.argsort(oids.astype(np.uint64) * 2654435761
                                % (1 << 32), kind="stable")
        # a fragment closes at the first term that finds it holding its
        # share of the tuples (the last one takes the rest); ``before``
        # counts the tuples ahead of each position
        before = np.zeros(len(oids) + 1, dtype=np.int64)
        np.cumsum(sizes[ranked], out=before[1:])
        target = max(1, -(-int(before[-1]) // fragment_count))  # ceil
        cuts = [0]
        while len(cuts) < fragment_count:
            cut = int(np.searchsorted(before[:-1], before[cuts[-1]] + target))
            if cut == len(oids):
                break
            cuts.append(cut)
        cuts.append(len(oids))

        terms_in_order, weights = oids[ranked].tolist(), idf[ranked].tolist()
        by_term = index.by_term
        fragment_set = FragmentSet(doc_ids=index.doc_ids)
        for number, (start, stop) in enumerate(zip(cuts, cuts[1:])):
            terms = terms_in_order[start:stop]
            idf_of = dict(zip(terms, weights[start:stop]))
            fragment_set.fragments.append(Fragment(
                index=number, term_oids=set(terms), idf=idf_of,
                packed=_FragmentPostings(idf_of, by_term),
                tuples=int(before[stop] - before[start])))
        span.set_attributes(terms=len(oids), fragments=len(fragment_set))
    return fragment_set
