"""Selection parity where ties crowd the boundary.

Every scan selects its first N by a partition at the n-th largest
quantized score plus a sort of the candidates at or above it
(:func:`repro.ir.ranking.select_top`).  The case that could go wrong is
the one where many candidates share that n-th score: the doc-oid
tie-break must then pick the same members, in the same order, as a full
sort.  This corpus makes it the common case — blocks of identical
documents, and a term every document holds once — and every scan
(pruned, refined, exhaustive, cut off) and ``rank_tfidf`` must equal
``tests/kernels/topn_oracle.py`` on rankings (scores by ``==``) and on
``stopped_early``, ``fragments_read`` and ``tuples_read``, for ``n`` = 1,
for ``n`` far below the candidates, and for ``n`` at and past them.
The corpus is smaller than the candidate count a partition starts at,
so every case also runs with the partition taken at any size.
"""

import numpy as np
import pytest

from repro.ir import ranking
from repro.ir.fragmentation import fragment_by_idf
from repro.ir.ranking import query_term_oids, rank_tfidf, select_top
from repro.ir.relations import IrRelations
from repro.ir.topn import topn_cutoff, topn_fragmented

from tests.kernels import topn_oracle as oracle

pytestmark = pytest.mark.kernels

#: (text, copies): blocks of identical documents; "flat" is in every
#: document exactly once, "rare" only in a few, and the w-terms spread
#: the idf range over more fragments
BLOCKS = [("flat common court", 24), ("flat common", 18),
          ("flat court court final", 12), ("flat rare rare common", 4),
          ("flat final", 10), ("flat rare", 2)] + [
              (f"flat w{i} w{i}", 3) for i in range(12)]

QUERIES = ["flat", "common", "court", "flat common", "rare flat",
           "rare final", "rare court", "final common court", "w1 flat",
           "w3 rare common"]
NS = [1, 2, 3, 5, 10, 17, 40, 110, 200]


@pytest.fixture(scope="module")
def relations():
    relations = IrRelations()
    number = 0
    for copy in range(max(copies for _, copies in BLOCKS)):
        for text, copies in BLOCKS:  # interleaved: ties span the oids
            if copy < copies:
                relations.add_document(f"http://site/t{number}", text)
                number += 1
    relations.refresh_idf()
    return relations


@pytest.fixture(scope="module", params=[1, 3, 5])
def fragments(relations, request):
    return fragment_by_idf(relations, request.param)


@pytest.fixture(autouse=True, params=["partition", "as shipped"])
def partition_from(request, monkeypatch):
    """Every case runs twice: once with the partition taken at any size
    (this corpus is below the size it starts at), once as shipped."""
    if request.param == "partition":
        monkeypatch.setattr(ranking, "_PARTITION_FROM", 0)


def assert_same(scalar, columnar):
    assert columnar.ranking == scalar.ranking  # scores included
    assert columnar.stopped_early == scalar.stopped_early
    assert columnar.fragments_read == scalar.fragments_read
    assert columnar.tuples_read == scalar.tuples_read


def test_the_corpus_crowds_the_boundary(relations):
    """At least 2n candidates share the n-th score for most (query, n)."""
    crowded = 0
    for query in QUERIES:
        scores = np.round([score for _, score in
                           rank_tfidf(relations, query, None)], 9)
        for n in NS:
            if n <= len(scores):
                crowded += np.count_nonzero(scores == scores[n - 1]) >= 2 * n
    assert crowded >= 20


def test_some_scans_stop_with_touched_fragments_unread(relations):
    """So the stop test fires and the refine pass has a tail to read."""
    fragments = fragment_by_idf(relations, 5)
    unread = 0
    for query in QUERIES:
        terms = query_term_oids(relations, query)
        touched = sum(1 for fragment in fragments
                      if set(terms) & fragment.term_oids)
        for n in NS:
            result = topn_fragmented(fragments, terms, n)
            unread += result.fragments_read < touched
    assert unread >= 2


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("n", NS)
class TestScans:
    def test_pruned(self, relations, fragments, query, n):
        terms = query_term_oids(relations, query)
        assert_same(oracle.topn_fragmented(fragments, terms, n),
                    topn_fragmented(fragments, terms, n))

    def test_refined(self, relations, fragments, query, n):
        terms = query_term_oids(relations, query)
        assert_same(oracle.topn_fragmented(fragments, terms, n, refine=True),
                    topn_fragmented(fragments, terms, n, refine=True))

    def test_exhaustive(self, relations, fragments, query, n):
        terms = query_term_oids(relations, query)
        assert_same(oracle.topn_fragmented(fragments, terms, n, prune=False),
                    topn_fragmented(fragments, terms, n, prune=False))

    def test_cut_off(self, relations, fragments, query, n):
        terms = query_term_oids(relations, query)
        for keep in range(len(fragments) + 1):
            assert_same(oracle.topn_cutoff(fragments, terms, n, keep),
                        topn_cutoff(fragments, terms, n, keep))

    def test_rank_tfidf(self, relations, fragments, query, n):
        assert rank_tfidf(relations, query, n) == \
            oracle.rank_tfidf(relations, query, n)


class TestSelectTop:
    """The selection itself against a full sort, ties everywhere."""

    @pytest.mark.parametrize("n", [1, 2, 7, 25, 99, 100, 101, None])
    def test_equals_the_full_sort(self, n):
        rng = np.random.default_rng(5)
        # five distinct scores over 100 candidates, and 1-ulp neighbours
        # that quantize to the same value
        raw = rng.choice([0.25, 0.5, 1.0 / 3.0, 2.0, 0.0], size=100)
        raw[::7] = np.nextafter(raw[::7], 3.0)
        docs = rng.permutation(1000)[:100].astype(np.int64)
        full = np.lexsort((docs, -np.round(raw, 9)))
        assert select_top(raw, docs, n).tolist() == full[:n].tolist()

    def test_no_candidates(self):
        empty = np.empty(0)
        assert select_top(empty, empty.astype(np.int64), 3).tolist() == []

    def test_the_oracle_quantizes_like_select_top(self):
        """A half-way score: Python's ``round`` gives 9.874580965 and
        ``np.round`` 9.874580966, so only the same quantizer ties the
        pair and lets the doc oid order it."""
        scores = {1: 9.8745809655, 2: 9.874580966}
        raw = np.array(list(scores.values()))
        docs = np.array(list(scores), dtype=np.int64)
        assert [doc for doc, _ in oracle._rank(scores, 2)] \
            == docs[select_top(raw, docs, 2)].tolist() == [1, 2]
