"""One corruption matrix across the three kinds of on-disk object.

A ``snapshot`` (one engine checkpoint generation), an ``artifact`` (the
static index) and a ``node`` (a replica checkpoint) share one manifest
and one IR part, so they share one list of ways to be broken.  Every
case must surface as a typed :class:`~repro.errors.SnapshotError` from
the loader that kind's users call: :func:`~repro.persistence.load_engine`,
:class:`~repro.offline.StaticIndexReader`, and a worker's ``bootstrap``
op.

Each kind carries the marker of the suite that owns it, so the
``persistence``, ``offline`` and ``remote`` jobs each run their own.
"""

import hashlib
import json
import struct
import zlib

import pytest

from repro.errors import SnapshotError
from repro.monetdb.persistence import load_catalog, save_catalog
from repro.offline import StaticIndexReader, export_index
from repro.persistence import (FORMAT_VERSION, IR_PART, MANIFEST_NAME,
                               SnapshotStore, load_engine, save_engine,
                               save_ir_object)
from repro.remote.worker import NodeWorker
from repro.webspace.schema import australian_open_schema

from tests.monetdb.container import SECTION, sections

KINDS = ("snapshot", "artifact", "node")


class Obj:
    """One saved object: its directory and the loader its users call."""

    def __init__(self, kind, directory, load):
        self.kind, self.directory, self.load = kind, directory, load

    @property
    def manifest(self):
        return self.directory / MANIFEST_NAME

    @property
    def ir_part(self):
        return self.directory / IR_PART

    def edit_manifest(self, mutate):
        data = json.loads(self.manifest.read_text())
        self.manifest.write_text(json.dumps(mutate(data)))

    def write_ir_part(self, data: bytes) -> None:
        """Replace ir.bats and re-stamp the manifest to agree, so only
        the container's own checks can catch a defect in it."""
        self.ir_part.write_bytes(data)

        def stamp(manifest):
            manifest["files"][IR_PART].update(
                sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
            return manifest
        self.edit_manifest(stamp)


def snapshot_object(populated, tmp_path):
    engine, server, _ = populated
    directory = save_engine(engine, tmp_path / "root")
    return Obj("snapshot", directory, lambda: load_engine(
        tmp_path / "root", australian_open_schema(), server))


def artifact_object(populated, tmp_path):
    engine, _, _ = populated
    directory = export_index(engine, tmp_path / "artifact")
    return Obj("artifact", directory, lambda: StaticIndexReader(directory))


@pytest.fixture
def node_worker():
    """An in-process worker whose ops are called directly (no serving)."""
    worker = NodeWorker(name="matrix")
    yield worker
    worker._listener.close()  # serve_forever() would close it


# each kind runs in the job of the suite that owns it
OWNERS = [pytest.param("snapshot", marks=pytest.mark.persistence),
          pytest.param("artifact", marks=pytest.mark.offline),
          pytest.param("node", marks=pytest.mark.remote)]


@pytest.fixture(params=OWNERS)
def obj(request, populated, tmp_path):
    if request.param == "snapshot":
        return snapshot_object(populated, tmp_path)
    if request.param == "artifact":
        return artifact_object(populated, tmp_path)
    engine, _, _ = populated
    directory = tmp_path / "node"
    save_ir_object(engine.ir.relations, directory, "node", seq=3)
    worker = request.getfixturevalue("node_worker")
    node = Obj("node", directory, lambda: worker._op_bootstrap(
        {"path": str(directory)}))
    node.worker = worker
    return node


def test_intact_objects_load(obj):
    assert obj.load() is not None


def save_again(obj, loaded, target):
    """What ``obj``'s loader restored, saved as a second object of its
    kind; returns the directory holding its data files."""
    if obj.kind == "snapshot":
        return save_engine(loaded, target)
    if obj.kind == "artifact":
        return export_index(loaded._engine, target)
    save_ir_object(obj.worker.relations, target, "node", seq=3)
    return target


def test_save_load_save_is_byte_identical(obj, tmp_path):
    again = save_again(obj, obj.load(), tmp_path / "again")
    stored = sorted(obj.directory.glob("*.bats"))
    assert IR_PART in [path.name for path in stored]
    for path in stored:
        assert (again / path.name).read_bytes() == path.read_bytes(), \
            path.name


def test_truncation_is_detected(obj):
    obj.ir_part.write_bytes(obj.ir_part.read_bytes()[:-7])
    with pytest.raises(SnapshotError, match="truncated"):
        obj.load()


def test_single_bit_flip_is_detected(obj):
    data = bytearray(obj.ir_part.read_bytes())
    data[len(data) // 2] ^= 0x40
    obj.ir_part.write_bytes(bytes(data))
    # the manifest's SHA-256 catches it where the loader verifies, the
    # container's CRC-32 where it does not
    with pytest.raises(SnapshotError, match="checksum|CRC-32"):
        obj.load()


def test_missing_data_file_is_detected(obj):
    obj.ir_part.unlink()
    with pytest.raises(SnapshotError, match="missing|unreadable"):
        obj.load()


def test_missing_manifest_is_typed(obj):
    # the manifest is the commit record: without it the directory is
    # not an object at all, however intact the data files are
    obj.manifest.unlink()
    with pytest.raises(SnapshotError, match=f"missing {MANIFEST_NAME}"):
        obj.load()


def test_unparseable_manifest_is_typed(obj):
    obj.manifest.write_text(obj.manifest.read_text()[:30])
    with pytest.raises(SnapshotError, match="unreadable manifest"):
        obj.load()


def test_manifest_missing_fields_is_typed(obj):
    obj.edit_manifest(lambda data: {key: value for key, value
                                    in data.items() if key != "generation"})
    with pytest.raises(SnapshotError, match="malformed manifest"):
        obj.load()


def test_future_format_version_is_refused(obj):
    obj.edit_manifest(lambda data: {**data,
                                    "format_version": FORMAT_VERSION + 1})
    with pytest.raises(SnapshotError,
                       match=f"format_version {FORMAT_VERSION + 1}"):
        obj.load()


def test_a_format_4_object_is_refused_by_version(obj):
    # format 4 kept ir:POS as one string per pair in a version 1
    # container; it is refused, not migrated
    obj.edit_manifest(lambda data: {**data, "format_version": 4})
    with pytest.raises(SnapshotError, match="format_version 4"):
        obj.load()


def test_a_format_5_object_is_refused_by_version(obj):
    # format 5 stored the four pair relations as BATs; it is refused,
    # not migrated
    obj.edit_manifest(lambda data: {**data, "format_version": 5})
    with pytest.raises(SnapshotError, match="format_version 5"):
        obj.load()


def reference_section(data: bytes) -> tuple[int, int, int]:
    """``(column, start, end)`` of ir.bats' first back-reference section
    (section ``n`` after the BAT header holds column ``n - 1``)."""
    return next((number - 1, start, end)
                for number, (start, end) in enumerate(sections(data))
                if data[start:start + 1] == b"r")


def column_of(data: bytes, name: str, side: int) -> int:
    """The column number of BAT ``name``'s head (0) or tail (1)."""
    names = [entry["name"] for entry in header_of(data)["bats"]]
    return 2 * names.index(name) + side


def header_of(data: bytes) -> dict:
    start, end = sections(data)[0]
    return json.loads(zlib.decompress(data[start + SECTION.size:end]))


def test_the_pair_oid_heads_are_stored_once(obj):
    # DT, TF and POS are no BATs on disk: the segment stores the pair
    # oids once, as one plain column, and the positions as another
    data = obj.ir_part.read_bytes()
    header = header_of(data)
    assert [entry["name"] for entry in header["bats"]] \
        == ["ir:D", "ir:IDF", "ir:T"]
    plain = [entry["name"] for entry in header["columns"]]
    assert plain.count("segment:pairs") == 1
    assert "segment:positions" in plain
    kinds = [data[start:start + 1] for start, _ in sections(data)]
    assert kinds[-len(plain):] == [b"u"] * len(plain)
    # the vocabulary's heads: ir:T's refers back to ir:IDF's
    column, _, _ = reference_section(data)
    assert column == column_of(data, "ir:T", 0)


def plain_section(data: bytes, name: str) -> tuple[int, int]:
    """``(start, end)`` of plain column ``name``'s section: plain column
    ``j`` follows the BAT header and every BAT's two columns."""
    header = header_of(data)
    names = [entry["name"] for entry in header["columns"]]
    return sections(data)[1 + 2 * len(header["bats"]) + names.index(name)]


def plain_values(data: bytes, name: str) -> list[int]:
    start, end = plain_section(data, name)
    width = data[start + SECTION.size]
    raw = data[start + SECTION.size + 1:end]
    return [int.from_bytes(raw[offset:offset + width], "little")
            for offset in range(0, len(raw), width)]


def with_plain_payload(data: bytes, name: str, payload: bytes) -> bytes:
    """``data`` with plain column ``name``'s payload replaced, its CRC-32
    made to agree: only the reader's own checks can catch a defect."""
    start, end = plain_section(data, name)
    return data[:start] + SECTION.pack(
        b"u", len(payload), zlib.crc32(payload)) + payload + data[end:]


def with_plain_values(data: bytes, name: str, mutate) -> bytes:
    values = mutate(plain_values(data, name))
    return with_plain_payload(data, name, bytes([8]) + struct.pack(
        f"<{len(values)}Q", *values))


def set_value(row, value):
    def mutate(values):
        values[row(values) if callable(row) else row] = value
        return values
    return mutate


def test_a_bit_flip_in_a_plain_column_is_detected(obj):
    data = bytearray(obj.ir_part.read_bytes())
    start, end = plain_section(bytes(data), "segment:pairs")
    data[(start + SECTION.size + end) // 2] ^= 0x08
    obj.write_ir_part(bytes(data))
    with pytest.raises(SnapshotError, match="CRC-32"):
        obj.load()


@pytest.mark.parametrize("width", [0, 3, 16])
def test_a_width_outside_the_four_is_typed(obj, width):
    data = obj.ir_part.read_bytes()
    start, end = plain_section(data, "segment:tfs")
    payload = bytes([width]) + data[start + SECTION.size + 1:end]
    obj.write_ir_part(with_plain_payload(data, "segment:tfs", payload))
    with pytest.raises(SnapshotError, match=f"width {width}, not one of"):
        obj.load()


def test_a_length_other_than_count_times_width_is_typed(obj):
    data = obj.ir_part.read_bytes()
    start, end = plain_section(data, "segment:dense")
    payload = data[start + SECTION.size:end] + b"\x00"
    obj.write_ir_part(with_plain_payload(data, "segment:dense", payload))
    with pytest.raises(SnapshotError, match="bytes, not .* values of"):
        obj.load()


def single_run(data: bytes) -> int:
    """The row of a pair whose term no other pair holds (not row 0)."""
    starts = plain_values(data, "segment:starts")
    stops = starts[1:] + [len(plain_values(data, "segment:pairs"))]
    return next(start for start, stop in zip(starts, stops)
                if stop - start == 1 and start)


def next_oid(data: bytes) -> int:
    return header_of(data)["next_oid"]


def documents(data: bytes) -> int:
    return next(entry["count"] for entry in header_of(data)["bats"]
                if entry["name"] == "ir:D")


@pytest.mark.parametrize("column, mutate, message", [
    ("segment:starts", lambda data: lambda starts: (
        starts[:1] + [starts[2], starts[1]] + starts[3:]), "run starts"),
    ("segment:starts", lambda data: set_value(
        -1, len(plain_values(data, "segment:pairs"))), "run starts"),
    ("segment:starts", lambda data: set_value(0, 1), "run starts"),
    ("segment:dense", lambda data: set_value(0, documents(data)),
     "past the end of ir:D"),
    ("segment:tfs", lambda data: set_value(0, 0), "tf below 1"),
    ("segment:tfs", lambda data: lambda tfs: [tfs[0] + 1] + tfs[1:],
     "position counts do not add up"),
    ("segment:pairs", lambda data: set_value(
        single_run(data), plain_values(data, "segment:pairs")[0]),
     "pair oid twice"),
    ("segment:pairs", lambda data: set_value(single_run(data),
                                             next_oid(data)),
     "at or past the next oid"),
    ("segment:pairs", lambda data: lambda pairs: pairs[::-1],
     "do not ascend"),
    ("segment:terms", lambda data: set_value(-1, next_oid(data) + 7),
     "missing from ir:T"),
    ("segment:terms", lambda data: set_value(1, plain_values(
        data, "segment:terms")[0]), "names a term twice"),
], ids=["starts descend", "starts pass the pairs", "starts not from 0",
        "dense past the documents", "tf of 0", "counts off the positions",
        "duplicate pair oid", "pair oid at next oid", "pairs descend",
        "term not in T", "duplicate term"])
def test_a_segment_the_build_would_not_make_is_typed(obj, column, mutate,
                                                    message):
    data = obj.ir_part.read_bytes()
    obj.write_ir_part(with_plain_values(data, column, mutate(data)))
    with pytest.raises(SnapshotError, match=message):
        obj.load()


def test_a_counts_column_is_typed(obj, tmp_path):
    # format 6 never stores per-pair position counts: every pair holds
    # tf positions, so an IR part that carries them is no segment
    catalog, columns = load_catalog(obj.ir_part)
    columns["segment:counts"] = columns["segment:tfs"]
    save_catalog(catalog, tmp_path / "counted.bats", columns=columns)
    obj.write_ir_part((tmp_path / "counted.bats").read_bytes())
    with pytest.raises(SnapshotError, match="plain columns"):
        obj.load()


def test_an_idf_that_is_not_the_segments_terms_is_typed(obj, tmp_path):
    # a term's df is its run length, read in ir:IDF's row order: an IDF
    # that names one term fewer would give the rest wrong dfs
    catalog, columns = load_catalog(obj.ir_part)
    idf = catalog.get("ir:IDF")
    idf.delete_head(idf.raw_columns()[0][0])
    save_catalog(catalog, tmp_path / "stale.bats", columns=columns)
    obj.write_ir_part((tmp_path / "stale.bats").read_bytes())
    with pytest.raises(SnapshotError,
                       match="ir:IDF does not name exactly the segment"):
        obj.load()


def test_an_idf_that_is_not_one_over_df_is_typed(obj, tmp_path):
    # idf is read off the segment's dfs, so the stored ir:IDF is checked
    # input: a weight that is not 1/df of its term's run is a defect
    catalog, columns = load_catalog(obj.ir_part)
    idf = catalog.get("ir:IDF")
    heads, tails = idf.raw_columns()
    idf.replace(heads[0], tails[0] / 2)
    save_catalog(catalog, tmp_path / "skewed.bats", columns=columns)
    obj.write_ir_part((tmp_path / "skewed.bats").read_bytes())
    with pytest.raises(SnapshotError, match="ir:IDF is not 1/df"):
        obj.load()


@pytest.mark.parametrize("target, message", [
    ("itself", "not yet read"),
    ("a later column", "not yet read"),
    ("ir:D's head", "another length or typecode"),  # the doc oids
    ("ir:D's tail", "another length or typecode"),  # the urls: not packed
])
def test_a_bad_back_reference_is_typed(obj, target, message):
    data = obj.ir_part.read_bytes()
    column, start, end = reference_section(data)
    number = {"itself": column, "a later column": column + 1,
              "ir:D's head": column_of(data, "ir:D", 0),
              "ir:D's tail": column_of(data, "ir:D", 1)}[target]
    assert number != column_of(data, "ir:IDF", 0)
    payload = zlib.compress(struct.pack("<Q", number), 1)
    obj.write_ir_part(data[:start] + SECTION.pack(
        b"r", len(payload), zlib.crc32(payload)) + payload + data[end:])
    with pytest.raises(SnapshotError, match=message):
        obj.load()


def test_a_bit_flip_in_a_reference_payload_is_detected(obj):
    data = bytearray(obj.ir_part.read_bytes())
    _, start, end = reference_section(bytes(data))
    data[end - 1] ^= 0x04
    obj.write_ir_part(bytes(data))
    with pytest.raises(SnapshotError, match="CRC-32"):
        obj.load()


def test_wrong_kind_is_refused(obj):
    other = KINDS[(KINDS.index(obj.kind) + 1) % len(KINDS)]
    obj.edit_manifest(lambda data: {**data, "kind": other})
    with pytest.raises(SnapshotError, match=f"'{other}' object, not a "
                                            f"'{obj.kind}'"):
        obj.load()


class TestOneIrPart:
    pytestmark = pytest.mark.persistence

    def test_every_kind_writes_the_same_ir_part(self, populated, tmp_path):
        engine, _, _ = populated
        snapshot = snapshot_object(populated, tmp_path).ir_part
        artifact = artifact_object(populated, tmp_path).ir_part
        save_ir_object(engine.ir.relations, tmp_path / "node", "node",
                       seq=0)
        node = tmp_path / "node" / IR_PART
        assert snapshot.read_bytes() == artifact.read_bytes() \
            == node.read_bytes()


class TestLoadersNameTheKindTheyFound:
    pytestmark = pytest.mark.persistence

    def test_load_engine_of_an_artifact(self, populated, tmp_path):
        artifact = artifact_object(populated, tmp_path)
        _, server, _ = populated
        with pytest.raises(SnapshotError,
                           match="'artifact' object, not a 'snapshot'"):
            load_engine(artifact.directory, australian_open_schema(),
                        server)

    def test_static_reader_of_a_snapshot_root(self, populated, tmp_path):
        snapshot_object(populated, tmp_path)
        root = tmp_path / "root"
        assert SnapshotStore(root).current_generation() is not None
        with pytest.raises(SnapshotError, match="is a snapshot root, not "
                                                "a 'artifact' object"):
            StaticIndexReader(root)

    def test_static_reader_of_a_snapshot_generation(self, populated,
                                                    tmp_path):
        snapshot = snapshot_object(populated, tmp_path)
        with pytest.raises(SnapshotError,
                           match="'snapshot' object, not a 'artifact'"):
            StaticIndexReader(snapshot.directory)
