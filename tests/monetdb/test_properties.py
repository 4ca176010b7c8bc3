"""Property-based tests: BAT operators against a reference model."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monetdb.atoms import Oid
from repro.monetdb.bat import BAT

_pairs = st.lists(
    st.tuples(st.integers(0, 20), st.integers(-50, 50)),
    max_size=40)


def _bat_and_model(pairs):
    bat = BAT("oid", "int", name="model")
    model: dict[int, list[int]] = defaultdict(list)
    for head, tail in pairs:
        bat.insert(Oid(head), tail)
        model[head].append(tail)
    return bat, model


@settings(max_examples=80)
@given(_pairs)
def test_find_all_matches_model(pairs):
    bat, model = _bat_and_model(pairs)
    for head in range(21):
        assert bat.find_all(Oid(head)) == model.get(head, [])


@settings(max_examples=80)
@given(_pairs, st.integers(-50, 50))
def test_find_heads_matches_model(pairs, needle):
    bat, model = _bat_and_model(pairs)
    expected = [head for head, tail in pairs if tail == needle]
    assert bat.find_heads(needle) == expected


@settings(max_examples=80)
@given(_pairs)
def test_reverse_is_involution(pairs):
    bat, _ = _bat_and_model(pairs)
    assert list(bat.reverse().reverse()) == list(bat)


@settings(max_examples=80)
@given(_pairs, st.integers(0, 20))
def test_delete_head_matches_model(pairs, doomed):
    bat, model = _bat_and_model(pairs)
    removed = bat.delete_head(Oid(doomed))
    assert removed == len(model.get(doomed, []))
    assert list(bat) == [(h, t) for h, t in pairs if h != doomed]


@settings(max_examples=80)
@given(_pairs)
def test_sort_tail_is_stable_permutation(pairs):
    bat, _ = _bat_and_model(pairs)
    ordered = list(bat.sort_tail())
    assert sorted(t for _, t in pairs) == [t for _, t in ordered]
    assert sorted(ordered) == sorted(pairs)  # a permutation


@settings(max_examples=80)
@given(_pairs, _pairs)
def test_join_matches_nested_loop(left_pairs, right_pairs):
    left = BAT("oid", "int")
    for head, tail in left_pairs:
        left.insert(Oid(head), tail)
    right = BAT("int", "str")
    for head, tail in right_pairs:
        right.insert(head, str(tail))
    expected = [(Oid(lh), str(rt))
                for lh, lt in left_pairs
                for rh, rt in right_pairs if lt == rh]
    assert sorted(left.join(right)) == sorted(expected)


@settings(max_examples=80)
@given(_pairs, st.integers(0, 5))
def test_topn_matches_sorted_prefix(pairs, n):
    bat, _ = _bat_and_model(pairs)
    top = list(bat.topn(n))
    tails = sorted((t for _, t in pairs), reverse=True)[:n]
    assert [t for _, t in top] == tails


# ----------------------------------------------------------------------
# the ascending property and the batch delete it drives
# ----------------------------------------------------------------------

def _naive_delete(pairs, doomed):
    return [(h, t) for h, t in pairs if h not in set(doomed)]


_doomed = st.lists(st.integers(-3, 24), max_size=12)  # absent + duplicates


@settings(max_examples=120)
@given(_pairs, _doomed)
def test_delete_heads_matches_naive_filter_on_ascending_heads(pairs, doomed):
    pairs = sorted(pairs, key=lambda pair: pair[0])
    bat, _ = _bat_and_model(pairs)
    assert bat.head_ascending
    removed = bat.delete_heads([Oid(h) for h in doomed if h >= 0] +
                               [h for h in doomed if h < 0])
    assert list(bat) == _naive_delete(pairs, doomed)
    assert removed == len(pairs) - len(bat)
    assert bat.head_ascending  # deleting rows keeps the order
    for head in range(21):  # lookups after the delete see the survivors
        assert bat.find_all(Oid(head)) == \
            [t for h, t in pairs if h == head and h not in doomed]


@settings(max_examples=120)
@given(_pairs, _doomed, st.booleans())
def test_delete_heads_matches_naive_filter_on_shuffled_heads(
        pairs, doomed, indexed):
    bat, _ = _bat_and_model(pairs)
    if indexed:
        bat.head_groups()  # the hash index path, else the one-scan path
    removed = bat.delete_heads(doomed)
    assert list(bat) == _naive_delete(pairs, doomed)
    assert removed == len(pairs) - len(bat)


@settings(max_examples=60)
@given(_pairs, _doomed)
def test_delete_heads_on_list_spilled_columns(pairs, doomed):
    # one head past int64 spills the column to a list: the property is
    # gone, the batch delete still equals the filter
    pairs = sorted(pairs, key=lambda pair: pair[0]) + [(2 ** 70, 1)]
    bat = BAT("int", "int")
    bat.extend(pairs)
    assert bat.storage()[0] == "list" and not bat.head_ascending
    bat.delete_heads(doomed + [2 ** 70])
    assert list(bat) == _naive_delete(pairs, doomed + [2 ** 70])


def test_delete_heads_visits_only_the_doomed_rows_when_ascending():
    from repro.telemetry import telemetry_session

    bat = BAT.from_columns("oid", "int", range(10_000), range(10_000))
    shuffled = BAT("oid", "int")
    shuffled.append_many([1, 0] + list(range(2, 10_000)), range(10_000))
    with telemetry_session() as telemetry:
        assert bat.delete_heads(range(500, 580)) == 80
        assert telemetry.metrics.sum_counters("monetdb.delete_visited") == 80
        assert shuffled.delete_heads(range(500, 580)) == 80
        # without the property: one pass (the hash index) for the whole
        # batch, not one per head
        assert telemetry.metrics.sum_counters("monetdb.delete_visited") \
            == 80 + 80 + 10_000


@settings(max_examples=80)
@given(st.lists(st.integers(0, 50), max_size=30),
       st.lists(st.integers(0, 50), max_size=30))
def test_ascending_flag_tracks_appends(first, second):
    bat = BAT("oid", "oid")
    assert bat.head_ascending and bat.tail_ascending  # empty
    bat.append_many(first, sorted(first))
    bat.append_many(second, sorted(second))
    heads = first + second
    assert bat.head_ascending == (heads == sorted(heads))
    assert bat.tail_ascending == (sorted(first) + sorted(second)
                                  == sorted(heads))
    copied = bat.copy()
    assert (copied.head_ascending, copied.tail_ascending) == \
        (bat.head_ascending, bat.tail_ascending)
    assert bat.reverse().head_ascending == bat.tail_ascending


def test_out_of_order_insert_clears_the_flag_and_lookups_stay_right():
    bat = BAT("oid", "int")
    for head in (1, 2, 3):
        bat.insert(Oid(head), head * 10)
    assert bat.head_ascending and bat.find(Oid(2)) == 20  # by bisect
    bat.insert(Oid(0), 0)
    assert not bat.head_ascending
    assert bat.find(Oid(0)) == 0 and bat.find(Oid(3)) == 30
    bat.clear()
    assert bat.head_ascending  # an empty column is ascending again
    flts = BAT("oid", "flt")
    assert not flts.tail_ascending  # only int64-packed columns track it


def test_many_lookups_bring_the_hash_index_back():
    bat = BAT.from_columns("oid", "int", range(100), range(100))
    assert bat.find(Oid(7)) == 7 and bat._head_index is None  # bisect
    for head in range(100):
        assert bat.find(Oid(head)) == head
    assert bat._head_index is not None  # mostly read: indexed again
    bat.delete_heads([Oid(3)])
    assert bat._head_index is None and bat.get(Oid(3)) is None


def test_ascending_flag_survives_a_snapshot_round_trip(tmp_path):
    from repro.monetdb.catalog import Catalog
    from repro.monetdb.persistence import load_catalog, save_catalog

    catalog = Catalog()
    catalog.ensure("t:asc", "oid", "oid").append_many([1, 2, 5], [7, 7, 9])
    catalog.ensure("t:not", "oid", "oid").append_many([3, 1], [2, 1])
    save_catalog(catalog, tmp_path / "snap.bats")
    loaded, _ = load_catalog(tmp_path / "snap.bats")
    assert loaded.get("t:asc").head_ascending
    assert loaded.get("t:asc").tail_ascending
    assert not loaded.get("t:not").head_ascending
    assert not loaded.get("t:not").tail_ascending
    # past the vectorized threshold the load derives it by one column op
    catalog.ensure("t:long", "oid", "int").append_many(
        range(5000), [1] * 4999 + [0])
    save_catalog(catalog, tmp_path / "snap.bats")
    long = load_catalog(tmp_path / "snap.bats")[0].get("t:long")
    assert long.head_ascending and not long.tail_ascending


# ----------------------------------------------------------------------
# the column container round-trips every catalog exactly
# ----------------------------------------------------------------------

#: text with NULs, non-BMP characters and lone surrogates
_text = st.text(st.characters(blacklist_categories=()), max_size=6)
_int64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_ATOM_VALUES = {
    "oid": st.integers(0, 2 ** 63 - 1),
    "int": st.one_of(_int64, st.integers(2 ** 63, 2 ** 80)),  # + spills
    "flt": st.floats(allow_nan=False),
    "str": _text,
    "bit": st.booleans(),
    "url": _text.map(lambda text: "/" + text),
}


@st.composite
def _catalogs(draw):
    from repro.monetdb.catalog import Catalog

    stride = draw(st.integers(1, 4))
    catalog = Catalog(oid_start=draw(st.integers(0, stride - 1)),
                      oid_stride=stride)
    for number in range(draw(st.integers(0, 4))):
        head = draw(st.sampled_from(sorted(_ATOM_VALUES)))
        tail = draw(st.sampled_from(sorted(_ATOM_VALUES)))
        pairs = draw(st.lists(st.tuples(_ATOM_VALUES[head],
                                        _ATOM_VALUES[tail]), max_size=8))
        bat = catalog.create(f"r{number}:{head}:{tail}", head, tail)
        for left, right in pairs:  # scalar inserts: spills happen here
            bat.insert(left, right)
    for _ in range(draw(st.integers(0, 5))):
        catalog.oids.new()
    return catalog


@settings(max_examples=150)
@given(_catalogs())
def test_container_round_trips_every_catalog(tmp_path_factory, catalog):
    from repro.monetdb.persistence import load_catalog, save_catalog

    path = tmp_path_factory.mktemp("container") / "c.bats"
    save_catalog(catalog, path)
    stride = catalog.oids._stride
    loaded, _ = load_catalog(path, oid_start=int(catalog.oids.peek()) % stride,
                             oid_stride=stride)
    assert loaded.names() == catalog.names()
    for name in catalog.names():
        before, after = catalog.get(name), loaded.get(name)
        assert (after.head_type, after.tail_type) == \
            (before.head_type, before.tail_type)
        assert after.storage() == before.storage()  # spills stay spilled
        assert list(after) == list(before)
        assert [type(value) for value in after.head] == \
            [type(value) for value in before.head]
        assert (after.head_ascending, after.tail_ascending) == \
            (before.head_ascending, before.tail_ascending)
    # the strided sequence resumes exactly where the saved one stopped
    assert [loaded.oids.new() for _ in range(3)] == \
        [catalog.oids.new() for _ in range(3)]
