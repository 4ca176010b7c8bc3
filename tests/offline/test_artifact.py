"""The artifact object: its layout, in-place re-export, and the checks
only an artifact has.

Missing / torn / incomplete manifests, format skew and the wrong kind
are the cross-kind matrix of :mod:`tests.persistence.test_object_matrix`;
what stays here is the analyzer fingerprint, the IR part's stamp,
format 2's refusal, the export's promise that an interruption never
leaves a torn artifact, and corruption aimed at each group of relations
format 2 kept in a file of its own.
"""

import hashlib
import json
import zlib

import pytest

from repro.errors import QueryError, SnapshotError
from repro.ir.engine import IrEngine
from repro.offline import StaticIndexReader, export_index
from repro.persistence import (FORMAT_VERSION, IR_PART, MANIFEST_NAME,
                               Manifest)

from tests.monetdb.container import SECTION, damaged, sections

pytestmark = pytest.mark.offline

#: Format 2 split the IR part into three files; ir.bats now holds the
#: same relations as sections of one container — DT, TF and POS as the
#: plain columns of the term-clustered segment.  The corruption cases
#: below still run once per former file, on its relations' sections.
FORMER_FILES = {
    "postings.bats": ("ir:T", "ir:IDF", "segment:terms", "segment:starts",
                      "segment:pairs", "segment:dense", "segment:tfs"),
    "positions.bats": ("segment:positions",),
    "meta.bats": ("ir:D",),
}


def load(artifact):
    return StaticIndexReader(artifact)


def edit_manifest(artifact, mutate):
    """Round-trip manifest.json through ``mutate`` (a dict -> dict)."""
    path = artifact / MANIFEST_NAME
    data = json.loads(path.read_text())
    path.write_text(json.dumps(mutate(data)))


def former_sections(data, former):
    """Numbers of the ir.bats sections holding ``former``'s relations.

    Section 0 is the BAT header; BAT ``i`` of its list contributes its
    head and tail column as sections ``1 + 2i`` and ``2 + 2i``, and
    plain column ``j`` after the ``b`` BATs section ``1 + 2b + j``.
    """
    start, end = sections(data)[0]
    header = json.loads(zlib.decompress(data[start + SECTION.size:end]))
    bats = [entry["name"] for entry in header["bats"]]
    plain = [entry["name"] for entry in header["columns"]]
    wanted = FORMER_FILES[former]
    numbers = [number for index, name in enumerate(bats) if name in wanted
               for number in (1 + 2 * index, 2 + 2 * index)]
    numbers += [1 + 2 * len(bats) + index
                for index, name in enumerate(plain) if name in wanted]
    assert len(numbers) == sum(2 if name in bats else 1 for name in wanted)
    assert set(wanted) <= set(bats) | set(plain)
    return sorted(numbers)


def restamp(artifact):
    """Make the manifest agree with ir.bats as it now is, so a defect
    gets past the SHA-256 pass and only the container can catch it."""
    data = (artifact / IR_PART).read_bytes()

    def stamp(manifest):
        manifest["files"][IR_PART].update(
            sha256=hashlib.sha256(data).hexdigest(), bytes=len(data))
        return manifest
    edit_manifest(artifact, stamp)


class TestExportLayout:
    def test_artifact_is_complete_and_self_describing(self, artifact):
        assert sorted(path.name for path in artifact.iterdir()) \
            == sorted([IR_PART, MANIFEST_NAME])
        manifest = Manifest.load(artifact, "artifact")
        assert manifest.format_version == FORMAT_VERSION
        assert manifest.kind == "artifact"
        assert set(manifest.files) == {IR_PART}
        assert manifest.files[IR_PART].bytes \
            == (artifact / IR_PART).stat().st_size

    def test_export_refuses_non_ir_engines(self, tmp_path):
        with pytest.raises(QueryError, match="IrEngine"):
            export_index(object(), tmp_path / "nope")

    def test_reexport_overwrites_in_place(self, engine, artifact):
        engine.index("http://site/new", "a brand new document")
        export_index(engine, artifact)
        reader = load(artifact)
        assert reader.generation == engine.generation
        assert reader.document_count() \
            == engine.relations.document_count()

    def test_interrupted_reexport_leaves_no_manifest(self, tmp_path,
                                                     monkeypatch):
        """An export that dies before its manifest lands must not leave
        the previous manifest describing the new data file."""
        engine = IrEngine(fragment_count=4)
        for number in range(50):
            engine.index(f"http://site/d{number}", f"document {number} "
                         "about digital library search")
        artifact = export_index(engine, tmp_path / "artifact")
        engine.index("http://site/late", "one more document")

        def crash(*args, **kwargs):
            raise OSError("simulated crash before the manifest")
        monkeypatch.setattr(Manifest, "save", crash)
        with pytest.raises(OSError, match="simulated crash"):
            export_index(engine, artifact)
        monkeypatch.undo()
        assert not (artifact / MANIFEST_NAME).exists()
        with pytest.raises(SnapshotError, match=f"missing {MANIFEST_NAME}"):
            load(artifact)


class TestCorruptionIsTyped:
    @pytest.mark.parametrize("victim", list(FORMER_FILES))
    def test_truncation_is_detected(self, artifact, victim):
        path = artifact / IR_PART
        data = path.read_bytes()
        start, end = sections(data)[former_sections(data, victim)[-1]]
        path.write_bytes(data[:(start + end) // 2])
        with pytest.raises(SnapshotError, match="bytes, manifest says"):
            load(artifact)

    @pytest.mark.parametrize("victim", ["postings.bats", "positions.bats"])
    def test_single_bit_flip_is_detected(self, artifact, victim):
        path = artifact / IR_PART
        data = bytearray(path.read_bytes())
        spans = sections(bytes(data))
        numbers = former_sections(bytes(data), victim)
        first, last = numbers[0], numbers[-1]
        data[(spans[first][0] + spans[last][1]) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            load(artifact)

    @pytest.mark.parametrize("victim", list(FORMER_FILES))
    def test_missing_data_file_is_detected(self, artifact, victim):
        # the relations' sections are cut out and the manifest agrees
        # with what is left: the BAT header still names them
        path = artifact / IR_PART
        data = path.read_bytes()
        spans = sections(data)
        gone = set(former_sections(data, victim))
        path.write_bytes(data[:spans[0][0]] + b"".join(
            data[start:end] for number, (start, end) in enumerate(spans)
            if number not in gone))
        restamp(artifact)
        with pytest.raises(SnapshotError):
            load(artifact)

    def test_unstamped_data_file_is_refused(self, artifact):
        def drop_stamp(data):
            del data["files"][IR_PART]
            return data
        edit_manifest(artifact, drop_stamp)
        with pytest.raises(SnapshotError, match=f"lacks a stamp for "
                                                f"{IR_PART}"):
            load(artifact)


class TestContainerChecksWithoutVerify:
    """A re-stamped defect satisfies the manifest's SHA-256 pass, so
    the container's own framing and CRC-32s must type every defect in
    every section of each former file's relations."""

    @pytest.mark.parametrize("victim", list(FORMER_FILES))
    def test_every_defect_in_every_section_is_typed(self, artifact, victim):
        path = artifact / IR_PART
        original = path.read_bytes()
        keep = set(former_sections(original, victim))
        for number, defect, data in damaged(original):
            if number not in keep:
                continue
            path.write_bytes(data)
            restamp(artifact)
            with pytest.raises(SnapshotError):
                load(artifact)
        path.write_bytes(original)
        restamp(artifact)
        assert load(artifact).document_count() > 0


class TestVersionSkewIsTyped:
    def test_analyzer_skew_is_refused(self, artifact):
        # an artifact tokenized differently would silently miss at
        # query time; the fingerprint turns that into a load error
        edit_manifest(artifact, lambda data: {
            **data,
            "analyzer": {**data["analyzer"], "stemmer": "porter-2025"}})
        with pytest.raises(SnapshotError, match="analyzer"):
            load(artifact)

    def test_a_format_2_artifact_is_refused_by_version(self, artifact):
        # the last three-file layout kept its manifest in index.json
        (artifact / MANIFEST_NAME).unlink()
        (artifact / "index.json").write_text(json.dumps(
            {"format_version": 2, "generation": 1, "files": {}}))
        with pytest.raises(SnapshotError, match="format_version 2"):
            load(artifact)
