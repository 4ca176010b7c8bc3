"""The cost/quality prediction model for fragmented retrieval.

"We are working on a quality model that allows the query optimizer to
estimate the quality degrade resulting from a-priori ignoring fragments
with lower idf" [BHC+01], building on a "selectivity model for
fragmented relations in information retrieval" [BCBA01].

:class:`QueryCostModel` predicts, from fragment *metadata only* (per-
term posting counts and total tf — never the postings themselves):

* ``predict_cost(terms, keep)`` — TF tuples a cut-off plan will read,
* ``predict_quality(terms, keep)`` — the fraction of the query's total
  tf·idf score mass the kept fragments contain (a proxy for overlap@N
  quality: the mass left behind bounds how much the ignored fragments
  could have changed the ranking),
* ``choose_fragments(terms, quality_target)`` — the cheapest prefix
  meeting a quality target, which is exactly the a-priori decision the
  paper's query optimizer wants to make.

Cost predictions are exact (counts are metadata); quality predictions
are estimates whose calibration the benchmarks measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.monetdb.atoms import Oid
from repro.ir.fragmentation import FragmentSet

__all__ = ["QueryCostModel", "CutoffPlan"]


@dataclass(frozen=True)
class CutoffPlan:
    """The optimizer's chosen plan for one query."""

    keep_fragments: int
    predicted_cost: int
    predicted_quality: float


class QueryCostModel:
    """Fragment-metadata statistics + the prediction functions."""

    def __init__(self, fragments: FragmentSet):
        self.fragments = fragments
        # per fragment: term -> (posting count, idf * total tf mass)
        self._stats: list[dict[Oid, tuple[int, float]]] = []
        for fragment in fragments:
            stats: dict[Oid, tuple[int, float]] = {}
            for term in fragment.term_oids:
                packed = fragment.packed[term]
                mass = fragment.idf[term] * sum(packed.tfs)
                stats[term] = (len(packed), mass)
            self._stats.append(stats)

    # -- predictions -------------------------------------------------------

    def predict_cost(self, terms: list[Oid], keep: int) -> int:
        """TF tuples read when only the first ``keep`` fragments count."""
        wanted = set(terms)
        total = 0
        for stats in self._stats[:keep]:
            for term in wanted & set(stats):
                total += stats[term][0]
        return total

    def predict_quality(self, terms: list[Oid], keep: int) -> float:
        """Estimated result quality: kept score mass / total score mass."""
        wanted = set(terms)
        kept = 0.0
        total = 0.0
        for position, stats in enumerate(self._stats):
            for term in wanted & set(stats):
                mass = stats[term][1]
                total += mass
                if position < keep:
                    kept += mass
        if total == 0.0:
            return 1.0
        return kept / total

    def quality_curve(self, terms: list[Oid]
                      ) -> list[tuple[int, int, float]]:
        """(keep, predicted cost, predicted quality) for every prefix."""
        return [(keep, self.predict_cost(terms, keep),
                 self.predict_quality(terms, keep))
                for keep in range(0, len(self.fragments.fragments) + 1)]

    # -- the optimizer decision ------------------------------------------

    def choose_fragments(self, terms: list[Oid],
                         quality_target: float = 0.9) -> CutoffPlan:
        """The cheapest fragment prefix predicted to meet the target.

        This is the paper's a-priori restriction: the optimizer decides
        *before reading any postings* how deep into the idf-ordered
        fragment list the query must go.
        """
        for keep in range(0, len(self.fragments.fragments) + 1):
            quality = self.predict_quality(terms, keep)
            if quality >= quality_target:
                return CutoffPlan(keep, self.predict_cost(terms, keep),
                                  quality)
        total = len(self.fragments.fragments)
        return CutoffPlan(total, self.predict_cost(terms, total), 1.0)
