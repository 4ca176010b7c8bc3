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
    return Obj("node", directory, lambda: worker._op_bootstrap(
        {"path": str(directory)}))


def test_intact_objects_load(obj):
    assert obj.load() is not None


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


def reference_section(data: bytes) -> tuple[int, int, int]:
    """``(column, start, end)`` of ir.bats' first back-reference section
    (section ``n`` after the BAT header holds column ``n - 1``)."""
    return next((number - 1, start, end)
                for number, (start, end) in enumerate(sections(data))
                if data[start:start + 1] == b"r")


def column_of(data: bytes, name: str, side: int) -> int:
    """The column number of BAT ``name``'s head (0) or tail (1)."""
    start, end = sections(data)[0]
    header = json.loads(zlib.decompress(data[start + SECTION.size:end]))
    names = [entry["name"] for entry in header["bats"]]
    return 2 * names.index(name) + side


def test_the_pair_oid_heads_are_stored_once(obj):
    data = obj.ir_part.read_bytes()
    column, _, _ = reference_section(data)
    assert column == column_of(data, "ir:DT:term", 0)
    kinds = [data[start:start + 1] for start, _ in sections(data)]
    for name in ("ir:DT:term", "ir:TF"):
        assert kinds[1 + column_of(data, name, 0)] == b"r"
    assert kinds[1 + column_of(data, "ir:POS", 1)] == b"q"


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
    assert number != column_of(data, "ir:DT:doc", 0)
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
