"""Catalog container save/load: round-trips and a typed error for every
defect the container can carry."""

import json
import struct
import zlib

import pytest

from repro.errors import CatalogError, SnapshotError
from repro.monetdb.atoms import Oid
from repro.monetdb.catalog import Catalog
import numpy as np

from repro.monetdb.persistence import (CONTAINER_MAGIC, CONTAINER_VERSION,
                                       load_catalog, save_catalog)

from tests.monetdb.container import SECTION, sections


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    names = catalog.create("names", "oid", "str")
    names.insert(catalog.oids.new(), "monica")
    names.insert(catalog.oids.new(), "albrecht")
    scores = catalog.create("scores", "oid", "flt")
    scores.insert(Oid(0), 1.5)
    flags = catalog.create("flags", "oid", "bit")
    flags.insert(Oid(1), True)
    return catalog


# -- an independent encoder: the layout as the module docstring states it --

def file_header(version: int = CONTAINER_VERSION,
                magic: bytes = CONTAINER_MAGIC) -> bytes:
    return struct.pack("<8sI", magic, version)


def frame(kind: bytes, raw: bytes, *, payload: bytes | None = None) -> bytes:
    payload = zlib.compress(raw, 1) if payload is None else payload
    return SECTION.pack(kind, len(payload), zlib.crc32(payload)) + payload


def bat_header(*bats, next_oid: int = 2) -> bytes:
    return frame(b"H", json.dumps({"next_oid": next_oid, "bats": [
        {"name": name, "head": head, "tail": tail, "count": count}
        for name, head, tail, count in bats]}).encode())


def int64s(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}q", *values)


def container(*parts: bytes) -> bytes:
    return file_header() + b"".join(parts)


def reference(number: int) -> bytes:
    """A section standing for the earlier column ``number``."""
    return frame(b"r", struct.pack("<Q", number))


def raises_typed(path, data: bytes) -> SnapshotError:
    path.write_bytes(data)
    with pytest.raises(SnapshotError) as info:
        load_catalog(path)
    assert info.value.path == path
    return info.value


class TestRoundTrip:
    def test_round_trip_preserves_relations(self, catalog, tmp_path):
        path = tmp_path / "snapshot.bats"
        save_catalog(catalog, path)
        loaded, _ = load_catalog(path)
        assert loaded.names() == ["flags", "names", "scores"]
        assert list(loaded.get("names")) == [(0, "monica"), (1, "albrecht")]
        assert loaded.get("scores").find(Oid(0)) == 1.5
        assert loaded.get("flags").find(Oid(1)) is True

    def test_round_trip_preserves_oid_types(self, catalog, tmp_path):
        path = tmp_path / "snapshot.bats"
        save_catalog(catalog, path)
        loaded, _ = load_catalog(path)
        assert isinstance(loaded.get("names").head[0], Oid)

    def test_oid_sequence_continues_after_load(self, catalog, tmp_path):
        path = tmp_path / "snapshot.bats"
        used = catalog.oids.peek()
        save_catalog(catalog, path)
        loaded, _ = load_catalog(path)
        assert loaded.oids.new() >= used

    def test_empty_catalog_round_trips(self, tmp_path):
        path = tmp_path / "empty.bats"
        save_catalog(Catalog(), path)
        assert len(load_catalog(path)[0]) == 0

    def test_the_layout_matches_the_documented_encoder(self, tmp_path):
        catalog = Catalog()
        catalog.create("r", "oid", "int").append_many([0, 1], [5, -3])
        catalog.create("s", "oid", "str").append_many([0], ["é"])
        catalog.oids.advance_past(1)
        save_catalog(catalog, tmp_path / "c.bats")
        expected = container(
            bat_header(("r", "oid", "int", 2), ("s", "oid", "str", 1)),
            frame(b"q", int64s(0, 1)), frame(b"q", int64s(5, -3)),
            frame(b"q", int64s(0)),
            frame(b"s", int64s(1) + "é".encode()))
        assert (tmp_path / "c.bats").read_bytes() == expected

    def test_an_equal_column_is_stored_once(self, tmp_path):
        catalog = Catalog()
        for name in ("x", "y"):
            catalog.create(name, "oid", "int").append_many([0, 1], [5, 0])
        catalog.create("z", "oid", "flt").append_many([0, 1], [1.0, 2.0])
        save_catalog(catalog, tmp_path / "c.bats")
        # z's head equals x's head; z's float tail is not x's int tail
        assert (tmp_path / "c.bats").read_bytes() == container(
            bat_header(("x", "oid", "int", 2), ("y", "oid", "int", 2),
                       ("z", "oid", "flt", 2), next_oid=0),
            frame(b"q", int64s(0, 1)), frame(b"q", int64s(5, 0)),
            reference(0), reference(1), reference(0),
            frame(b"d", struct.pack("<2d", 1.0, 2.0)))

    def test_each_bat_gets_its_own_copy_of_a_shared_column(self, tmp_path):
        catalog = Catalog()
        for name in ("x", "y"):
            catalog.create(name, "oid", "int").append_many([0, 1], [5, 6])
        save_catalog(catalog, tmp_path / "c.bats")
        loaded, _ = load_catalog(tmp_path / "c.bats")
        x, y = loaded.get("x"), loaded.get("y")
        assert x.raw_columns()[0] is not y.raw_columns()[0]
        x.append_many([2], [7])
        x.delete_head(0)
        assert list(y) == [(0, 5), (1, 6)]
        assert y.head_ascending

    def test_plain_columns_round_trip_at_the_narrowest_width(self,
                                                              tmp_path):
        catalog = Catalog()
        catalog.create("x", "oid", "int").append_many([0], [5])
        columns = {"small": np.array([0, 255]), "wide": np.array([256, 7]),
                   "huge": np.array([2 ** 40]), "empty": np.array([], int)}
        save_catalog(catalog, tmp_path / "c.bats", columns=columns)
        data = (tmp_path / "c.bats").read_bytes()
        header, *_, small, wide, huge, empty = sections(data)
        widths = [data[start + SECTION.size] for start, _ in
                  (small, wide, huge, empty)]
        assert widths == [1, 2, 8, 1]
        assert data[small[0]:small[0] + 1] == b"u"
        assert data[small[0] + SECTION.size:small[1]] == b"\x01\x00\xff"
        loaded, plain = load_catalog(tmp_path / "c.bats")
        assert list(loaded.get("x")) == [(0, 5)]
        assert list(plain) == list(columns)
        for name, values in columns.items():
            assert plain[name].dtype == np.int64
            assert plain[name].tolist() == values.tolist()

    def test_a_negative_plain_value_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            save_catalog(Catalog(), tmp_path / "c.bats",
                         columns={"x": np.array([1, -1])})

    def test_saves_are_deterministic(self, catalog, tmp_path):
        save_catalog(catalog, tmp_path / "a.bats")
        save_catalog(load_catalog(tmp_path / "a.bats")[0], tmp_path / "b.bats")
        assert (tmp_path / "a.bats").read_bytes() \
            == (tmp_path / "b.bats").read_bytes()


class TestErrors:
    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(SnapshotError, match="unreadable container"):
            load_catalog(tmp_path / "absent.bats")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "broken.bats"
        path.write_text("")
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_bad_format_version_raises(self, tmp_path):
        error = raises_typed(tmp_path / "broken.bats",
                             file_header(version=99) + bat_header())
        assert "unsupported container version 99" in str(error)

    def test_truncated_bat_raises(self, tmp_path):
        # the header promises a BAT whose tail column never comes
        error = raises_typed(tmp_path / "broken.bats", container(
            bat_header(("r", "oid", "int", 1)), frame(b"q", int64s(0))))
        assert "tail column of 'r'" in str(error)

    def test_pair_before_header_raises(self, tmp_path):
        error = raises_typed(tmp_path / "broken.bats",
                             container(frame(b"q", int64s(0))))
        assert "expected the BAT header" in str(error)


class TestContainerSafety:
    """Every defect is a typed :class:`SnapshotError` naming the file."""

    @pytest.fixture
    def saved(self, tmp_path) -> bytes:
        catalog = Catalog()
        catalog.create("ints", "oid", "int").append_many([0, 1, 2],
                                                         [7, 2 ** 40, -1])
        catalog.create("flts", "oid", "flt").append_many([0], [0.5])
        catalog.create("strs", "oid", "str").append_many(
            [1, 2], ["a\x00", "\U0001d11e"])
        catalog.create("bits", "oid", "bit").append_many([0], [False])
        catalog.create("big", "oid", "int").append_many([0], [2 ** 70])
        catalog.create("none", "oid", "url")
        save_catalog(catalog, tmp_path / "good.bats",
                     columns={"plain": np.array([3, 70000])})
        return (tmp_path / "good.bats").read_bytes()

    def test_the_fixture_has_every_section_kind(self, saved):
        kinds = {saved[start:start + 1] for start, _ in sections(saved)}
        assert kinds == {b"H", b"q", b"d", b"r", b"s", b"j", b"u"}

    def test_truncation_at_and_inside_every_section(self, saved, tmp_path):
        cuts = set(range(len(saved)))  # every byte prefix, boundaries too
        assert {start for start, _ in sections(saved)} <= cuts
        for cut in sorted(cuts):
            raises_typed(tmp_path / "cut.bats", saved[:cut])

    def test_a_bit_flip_anywhere_is_caught(self, saved, tmp_path):
        for position in range(len(saved)):
            flipped = bytearray(saved)
            flipped[position] ^= 1 << (position % 8)
            raises_typed(tmp_path / "flip.bats", bytes(flipped))

    def test_bad_magic(self, saved, tmp_path):
        error = raises_typed(tmp_path / "m.bats", b"NOTABATS" + saved[8:])
        assert "magic" in str(error)
        # a pre-container JSON-lines catalog is just another bad magic
        raises_typed(tmp_path / "old.jsonl",
                     b'{"format": 1, "next_oid": 0}\n')

    @pytest.mark.parametrize("kind, raw", [
        (b"q", int64s(0, 1)),                    # fewer values than count
        (b"q", int64s(0, 1, 2, 3)),              # more values than count
        (b"q", int64s(0, 1, 2)[:-1]),            # not a whole int64
        (b"j", b"[0, 1]"),
        (b"j", b'{"a": 1}'),                     # not a list
    ])
    def test_count_mismatch(self, tmp_path, kind, raw):
        raises_typed(tmp_path / "n.bats", container(
            bat_header(("r", "oid", "int", 3)), frame(kind, raw),
            frame(b"q", int64s(1, 2, 3))))

    @pytest.mark.parametrize("raw", [
        int64s(1),                    # fewer lengths than values
        int64s(2, 0) + b"abc",        # lengths promise 2 chars, blob has 3
        int64s(3, 0),                 # a length the blob cannot hold
        int64s(4, -1) + b"abc",       # a negative length
        int64s(1, 1) + b"\xff\xfe",   # not UTF-8
    ])
    def test_text_length_mismatch(self, tmp_path, raw):
        raises_typed(tmp_path / "t.bats", container(
            bat_header(("r", "oid", "str", 2)), frame(b"q", int64s(0, 1)),
            frame(b"s", raw)))

    @pytest.mark.parametrize("bats, parts, message", [
        # a column that refers to itself, or to one further on
        ([("y", "oid", "int", 3)], [reference(2), reference(1)],
         "not yet read"),
        ([("y", "oid", "int", 3)], [reference(3), reference(1)],
         "not yet read"),
        # to a column of another length, of another typecode, or to a
        # column that is not packed at all
        ([("y", "oid", "int", 1)], [reference(0), frame(b"q", int64s(7))],
         "another length"),
        ([("y", "oid", "flt", 3)], [reference(0), reference(1)],
         "another length or typecode"),
        ([("y", "oid", "str", 3), ("z", "oid", "int", 3)],
         [reference(0), frame(b"s", int64s(1, 1, 1) + b"abc"),
          reference(3), reference(1)], "another length or typecode"),
        ([("y", "oid", "int", 3)], [frame(b"r", b"\x00"), reference(1)],
         "malformed back-reference"),
    ])
    def test_a_bad_back_reference_is_typed(self, tmp_path, bats, parts,
                                           message):
        error = raises_typed(tmp_path / "r.bats", container(
            bat_header(("x", "oid", "int", 3), *bats),
            frame(b"q", int64s(0, 1, 2)), frame(b"q", int64s(4, 5, 6)),
            *parts))
        assert message in str(error)

    @pytest.mark.parametrize("payload, message", [
        (b"\x03" + b"\x00" * 6, "width 3"),
        (b"", "width 0"),
        (b"\x02" + b"\x00" * 5, "holds 5 bytes, not 3 values of 2"),
        (b"\x08" + b"\xff" * 24, "past int64"),
    ])
    def test_a_bad_plain_column_is_typed(self, tmp_path, payload, message):
        header = frame(b"H", json.dumps({
            "next_oid": 0, "bats": [],
            "columns": [{"name": "p", "count": 3}]}).encode())
        error = raises_typed(tmp_path / "p.bats", container(
            header, frame(b"u", b"", payload=payload)))
        assert message in str(error)

    def test_a_plain_column_must_sit_in_a_plain_section(self, tmp_path):
        header = frame(b"H", json.dumps({
            "next_oid": 0, "bats": [],
            "columns": [{"name": "p", "count": 1}]}).encode())
        raises_typed(tmp_path / "p.bats", container(header,
                                                    frame(b"q", int64s(1))))
        # and a BAT column cannot sit in one
        raises_typed(tmp_path / "b.bats", container(
            bat_header(("r", "oid", "int", 1)),
            frame(b"u", b"", payload=b"\x01\x00"), frame(b"q", int64s(1))))

    def test_section_kind_must_fit_the_atom(self, tmp_path):
        raises_typed(tmp_path / "k.bats", container(
            bat_header(("r", "oid", "str", 1)), frame(b"q", int64s(0)),
            frame(b"q", int64s(5))))

    def test_values_must_fit_the_atom(self, tmp_path):
        raises_typed(tmp_path / "a.bats", container(
            bat_header(("r", "oid", "bit", 1)), frame(b"q", int64s(0)),
            frame(b"j", b'["yes"]')))

    def test_malformed_bat_header(self, tmp_path):
        for raw in (b"{", b"[]", b'{"next_oid": 0, "bats": [{"name": "r"}]}',
                    b'{"next_oid": 0, "bats": [{"name": "r", "head": "oid",'
                    b' "tail": "nosuchatom", "count": 0}]}'):
            raises_typed(tmp_path / "h.bats", container(frame(b"H", raw)))

    def test_trailing_garbage(self, saved, tmp_path):
        error = raises_typed(tmp_path / "g.bats", saved + b"\x00")
        assert "trailing" in str(error)

    def test_corrupt_zlib_stream(self, tmp_path):
        # the CRC is right (it covers the stored bytes), the stream is not
        error = raises_typed(tmp_path / "z.bats", container(
            frame(b"H", b"", payload=b"\x78\x01garbage")))
        assert "zlib" in str(error)
