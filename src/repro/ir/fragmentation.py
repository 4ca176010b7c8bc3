"""Horizontal fragmentation of TF/IDF on descending idf.

"Since terms with a high idf ... are expected to be more significant to
the ranking ... we fragment on descending idf.  Moving these less
interesting but more expensive terms to the end of the fragment set
allows us to exploit this knowledge later on during query optimization."

A :class:`FragmentSet` materialises that layout: terms ordered by
descending idf are split into fragments of (approximately) equal TF tuple
counts, each fragment carrying its own TF slice, its IDF slice, and the
per-term statistics (idf, max tf) the top-N optimizer's bounds need.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.errors import BatError
from repro.monetdb.atoms import Oid
from repro.ir.relations import IrRelations, PackedPostings
from repro.telemetry.runtime import get_telemetry

__all__ = ["Fragment", "FragmentSet", "fragment_by_idf"]


@dataclass
class Fragment:
    """One horizontal fragment of the TF relation.

    ``packed`` shares the :class:`~repro.ir.relations.PackedPostings`
    columns of the relations' postings index, which is what the scoring
    kernels read; every term in ``term_oids`` has an entry.
    """

    index: int
    term_oids: set[Oid]
    idf: dict[Oid, float]
    max_tf: dict[Oid, int]
    packed: dict[Oid, PackedPostings]
    tuples: int = 0

    def max_score_bound(self, term_oid: Oid) -> float:
        """Upper bound on any document's score gain from this term here."""
        return self.idf[term_oid] * self.max_tf[term_oid]

    def min_idf(self) -> float:
        """Smallest idf of any term stored in this fragment."""
        return min(self.idf.values()) if self.idf else 0.0


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
    """Build a fragment set from the IR relations.

    ``order`` selects the fragmentation criterium: ``"idf"`` is the
    paper's descending-idf layout; ``"random"`` is the ablation baseline
    (a deterministic shuffle by term oid) used by benchmark E6 to show
    that pruning only pays off under the idf ordering.
    """
    if fragment_count < 1:
        raise BatError("fragment_count must be >= 1")
    # memoized against the relations' generation: a no-op when fresh
    relations.refresh_idf()
    get_telemetry().metrics.counter("ir.fragment_rebuilds").add(1)
    idf_of = dict(zip(relations.IDF.head, relations.IDF.tail))
    term_oids = list(idf_of)
    if order == "idf":
        term_oids.sort(key=lambda oid: (-idf_of[oid], oid))
    elif order == "random":
        term_oids.sort(key=lambda oid: (oid * 2654435761) % (1 << 32))
    else:
        raise BatError(f"unknown fragmentation order: {order!r}")

    # only the layout is derived here: the fragments share the postings
    # index's packed columns, generation after generation
    index = relations.postings_index()
    by_term = index.by_term
    sizes = [len(by_term[oid].docs) for oid in term_oids]
    target = max(1, -(-sum(sizes) // fragment_count))  # ceil division

    # a fragment closes once it holds its share of the tuples (the last
    # one takes the rest): cut points first, then one slice per fragment
    cuts = [0]
    tuples = 0
    for position, size in enumerate(sizes):
        if tuples >= target and len(cuts) < fragment_count:
            cuts.append(position)
            tuples = 0
        tuples += size
    cuts.append(len(term_oids))

    fragment_set = FragmentSet(doc_ids=index.doc_ids)
    for start, stop in zip(cuts, cuts[1:]):
        terms = term_oids[start:stop]
        packed = {oid: by_term[oid] for oid in terms}
        fragment_set.fragments.append(Fragment(
            index=len(fragment_set.fragments),
            term_oids=set(terms),
            idf={oid: idf_of[oid] for oid in terms},
            max_tf={oid: entry.max_tf for oid, entry in packed.items()},
            tuples=sum(sizes[start:stop]),
            packed=packed))
    return fragment_set
