"""The algebra's two operators: the batch join and the top-N merge."""

import numpy as np

from repro.ir.ranking import select_top
from repro.monetdb.algebra import join_packed, topn_merge
from repro.monetdb.atoms import Oid
from repro.monetdb.bat import BAT


class TestBatchKernels:
    def test_join_packed_carries_origins(self):
        edges = BAT.from_pairs("oid", "oid",
                               [(Oid(1), Oid(10)), (Oid(1), Oid(11)),
                                (Oid(2), Oid(12))])
        pairs = join_packed([("origin-a", Oid(1)), ("origin-b", Oid(2))],
                            edges)
        assert pairs == [("origin-a", 10), ("origin-a", 11),
                         ("origin-b", 12)]

    def test_join_packed_missing_key_drops(self):
        edges = BAT.from_pairs("oid", "oid", [(Oid(1), Oid(10))])
        assert join_packed([("x", Oid(9))], edges) == []


class TestRankingOrder:
    def test_quantize_score_grid(self):
        # scores within the 1e-9 grid tie, and the tie breaks on the key
        merged = topn_merge([[(2, 1.0000000001)], [(1, 1.0)]], n=2)
        assert [key for key, _ in merged] == [1, 2]
        merged = topn_merge([[(2, 0.5)], [(1, 0.5 - 1e-8)]], n=2)
        assert [key for key, _ in merged] == [2, 1]

    def test_sort_key_orders_score_desc_then_key_asc(self):
        merged = topn_merge([[("b", 1.0), ("a", 1.0), ("c", 2.0)]], n=3)
        assert merged == [("c", 2.0), ("a", 1.0), ("b", 1.0)]


class TestTopNMerge:
    def test_merges_sorted_rankings(self):
        merged = topn_merge([[("a", 3.0), ("b", 1.0)],
                             [("c", 2.0)]], n=3)
        assert merged == [("a", 3.0), ("c", 2.0), ("b", 1.0)]

    def test_cuts_to_n(self):
        merged = topn_merge([[("a", 3.0), ("b", 2.0)],
                             [("c", 2.5)]], n=2)
        assert merged == [("a", 3.0), ("c", 2.5)]

    def test_ties_break_on_key(self):
        merged = topn_merge([[("b", 1.0)], [("a", 1.0)]], n=2)
        assert merged == [("a", 1.0), ("b", 1.0)]

    def test_unsorted_inputs_still_merge_to_total_order(self):
        # the documented total order is a pure function of the input
        # *sets*: inputs whose tie order was perturbed (e.g. by a node
        # mapping local oids onto central oids) merge identically
        shuffled = topn_merge([[(3, 1.0), (1, 1.0)], [(2, 1.0)]], n=3)
        sorted_in = topn_merge([[(1, 1.0), (3, 1.0)], [(2, 1.0)]], n=3)
        assert shuffled == sorted_in == [(1, 1.0), (2, 1.0), (3, 1.0)]

    def test_one_ulp_scores_do_not_flip_ties(self):
        a = 0.1 + 0.2           # 0.30000000000000004
        b = 0.3
        merged = topn_merge([[(2, a)], [(1, b)]], n=2)
        assert [key for key, _ in merged] == [1, 2]

    def test_empty_inputs(self):
        assert topn_merge([], n=5) == []
        assert topn_merge([[], []], n=5) == []

    def test_a_half_way_pair_merges_as_a_node_selects_it(self):
        # 9.8745809655 lies below the half-way point as a decimal, so
        # Python's round(x, 9) gives 9.874580965, but x * 1e9 rounds to
        # ...965.5 and np.round gives 9.874580966: a tie with doc 2,
        # broken on the key.  The merge quantizes as every node's scan
        # does (select_top), so doc 1 comes first in both.
        first, second = 9.8745809655, 9.874580966
        merged = topn_merge([[(1, first)], [(2, second)]], 2)
        assert merged == [(1, first), (2, second)]
        assert select_top(np.array([first, second]), np.array([1, 2]),
                          2).tolist() == [0, 1]

    def test_keys_and_scores_pass_through_unchanged(self):
        merged = topn_merge([[(Oid(3), 0.5)], [(Oid(4), 0.75)]], 2)
        assert merged == [(4, 0.75), (3, 0.5)]
        assert all(type(key) is Oid for key, _ in merged)
