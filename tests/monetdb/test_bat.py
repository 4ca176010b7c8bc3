"""BAT operator semantics."""

import pytest

from repro.errors import AtomTypeError, BatError
from repro.monetdb.bat import BAT
from repro.monetdb.atoms import Oid


@pytest.fixture
def ages() -> BAT:
    bat = BAT("oid", "int", name="ages")
    bat.extend([(Oid(1), 30), (Oid(2), 25), (Oid(3), 30), (Oid(4), 41)])
    return bat


class TestBasics:
    def test_len_counts_buns(self, ages):
        assert len(ages) == 4
        assert ages.count() == 4

    def test_iteration_yields_pairs_in_order(self, ages):
        assert list(ages) == [(1, 30), (2, 25), (3, 30), (4, 41)]

    def test_insert_validates_head_type(self, ages):
        with pytest.raises(AtomTypeError):
            ages.insert("x", 10)

    def test_insert_validates_tail_type(self, ages):
        with pytest.raises(AtomTypeError):
            ages.insert(Oid(9), "ten")

    def test_from_pairs(self):
        bat = BAT.from_pairs("str", "int", [("a", 1), ("b", 2)])
        assert list(bat) == [("a", 1), ("b", 2)]


class TestFind:
    def test_find_returns_first_tail(self, ages):
        assert ages.find(Oid(2)) == 25

    def test_find_missing_raises(self, ages):
        with pytest.raises(BatError):
            ages.find(Oid(99))

    def test_get_returns_default(self, ages):
        assert ages.get(Oid(99), -1) == -1

    def test_find_all_returns_every_tail(self):
        bat = BAT.from_pairs("oid", "int", [(Oid(1), 5), (Oid(1), 7)])
        assert bat.find_all(Oid(1)) == [5, 7]

    def test_find_heads_uses_tail_index(self, ages):
        assert ages.find_heads(30) == [1, 3]

    def test_exists(self, ages):
        assert ages.exists(Oid(1))
        assert not ages.exists(Oid(99))

    def test_index_updates_after_insert(self, ages):
        ages.find(Oid(1))  # builds index
        ages.insert(Oid(5), 30)
        assert ages.find(Oid(5)) == 30
        assert ages.find_heads(30) == [1, 3, 5]


class TestSelect:
    def test_select_predicate(self, ages):
        assert ages.select(lambda age: age > 28).head == [1, 3, 4]


class TestViews:
    def test_reverse_swaps_columns(self, ages):
        reversed_bat = ages.reverse()
        assert reversed_bat.head[:2] == [30, 25]
        assert reversed_bat.head_type.name == "int"

    def test_copy_is_independent(self, ages):
        clone = ages.copy()
        clone.insert(Oid(9), 1)
        assert len(ages) == 4

    def test_slice(self, ages):
        assert list(ages.slice(1, 3)) == [(2, 25), (3, 30)]


class TestJoin:
    def test_join_matches_tail_to_head(self):
        left = BAT.from_pairs("oid", "str", [(Oid(1), "a"), (Oid(2), "b")])
        right = BAT.from_pairs("str", "int", [("a", 10), ("b", 20),
                                              ("a", 11)])
        joined = left.join(right)
        assert sorted(joined) == [(1, 10), (1, 11), (2, 20)]

    def test_join_type_mismatch_raises(self):
        left = BAT.from_pairs("oid", "int", [(Oid(1), 1)])
        right = BAT.from_pairs("str", "int", [("a", 1)])
        with pytest.raises(BatError):
            left.join(right)


class TestOrderingAndAggregates:
    def test_sort_tail_ascending(self, ages):
        assert ages.sort_tail().tail == [25, 30, 30, 41]

    def test_sort_tail_descending(self, ages):
        assert ages.sort_tail(descending=True).tail == [41, 30, 30, 25]

    def test_topn(self, ages):
        top = ages.topn(2)
        assert top.tail == [41, 30]

    def test_topn_negative_raises(self, ages):
        with pytest.raises(BatError):
            ages.topn(-1)


class TestUpdates:
    def test_delete_head_removes_all(self):
        bat = BAT.from_pairs("oid", "int", [(Oid(1), 5), (Oid(1), 7),
                                            (Oid(2), 9)])
        assert bat.delete_head(Oid(1)) == 2
        assert list(bat) == [(2, 9)]

    def test_delete_missing_returns_zero(self, ages):
        assert ages.delete_head(Oid(99)) == 0

    def test_replace_updates_tails(self, ages):
        assert ages.replace(Oid(1), 31) == 1
        assert ages.find(Oid(1)) == 31

    def test_indexes_rebuilt_after_delete(self, ages):
        ages.find_heads(30)
        ages.delete_head(Oid(1))
        assert ages.find_heads(30) == [3]
