"""Artifact integrity: corruption is always a typed error, never a
silently wrong ranking.

Every tampering vector — truncation, a flipped bit, a deleted data
file, a missing or malformed manifest, format/analyzer version skew —
must surface as a :class:`~repro.errors.SnapshotError` (or a subclass)
at load time, before a single record is served.
"""

import json

import pytest

from repro.errors import QueryError, SnapshotError
from repro.offline import (INDEX_MANIFEST, OFFLINE_FORMAT_VERSION,
                           OfflineManifest, StaticIndexReader,
                           export_index)
from repro.offline.artifact import (ARTIFACT_FILES, META_FILE,
                                    POSITIONS_FILE, POSTINGS_FILE)

from tests.monetdb.container import damaged

pytestmark = pytest.mark.offline


def load(artifact, **kwargs):
    return StaticIndexReader(artifact, **kwargs)


def edit_manifest(artifact, mutate):
    """Round-trip index.json through ``mutate`` (a dict -> dict)."""
    path = artifact / INDEX_MANIFEST
    data = json.loads(path.read_text())
    path.write_text(json.dumps(mutate(data)))


class TestExportLayout:
    def test_artifact_is_complete_and_self_describing(self, artifact):
        assert (artifact / INDEX_MANIFEST).exists()
        for name in ARTIFACT_FILES:
            assert (artifact / name).exists()
        manifest = OfflineManifest.load(artifact)
        assert manifest.format_version == OFFLINE_FORMAT_VERSION
        assert set(manifest.files) == set(ARTIFACT_FILES)
        for name, stamp in manifest.files.items():
            assert stamp.bytes == (artifact / name).stat().st_size

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


class TestCorruptionIsTyped:
    @pytest.mark.parametrize("victim", list(ARTIFACT_FILES))
    def test_truncation_is_detected(self, artifact, victim):
        path = artifact / victim
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(SnapshotError):
            load(artifact)

    @pytest.mark.parametrize("victim", [POSTINGS_FILE, POSITIONS_FILE])
    def test_single_bit_flip_is_detected(self, artifact, victim):
        path = artifact / victim
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load(artifact)

    @pytest.mark.parametrize("victim", list(ARTIFACT_FILES))
    def test_missing_data_file_is_detected(self, artifact, victim):
        (artifact / victim).unlink()
        with pytest.raises(SnapshotError):
            load(artifact)

    def test_missing_manifest_means_not_an_artifact(self, artifact):
        # the manifest is the commit record: without it the directory
        # is not an artifact at all, however intact the data files are
        (artifact / INDEX_MANIFEST).unlink()
        with pytest.raises(SnapshotError, match="missing index.json"):
            load(artifact)

    def test_unparseable_manifest_is_typed(self, artifact):
        (artifact / INDEX_MANIFEST).write_text("{not json")
        with pytest.raises(SnapshotError, match="unreadable"):
            load(artifact)

    def test_manifest_missing_fields_is_typed(self, artifact):
        edit_manifest(artifact, lambda data: {
            key: value for key, value in data.items()
            if key != "generation"})
        with pytest.raises(SnapshotError, match="malformed"):
            load(artifact)

    def test_unstamped_data_file_is_refused(self, artifact):
        def drop_stamp(data):
            del data["files"][META_FILE]
            return data
        edit_manifest(artifact, drop_stamp)
        with pytest.raises(SnapshotError, match="lacks stamps"):
            load(artifact)


class TestContainerChecksWithoutVerify:
    """``verify=False`` skips the SHA-256 pass: each container's own
    framing and CRC-32s must still turn every defect into a typed
    error — in every section of every data file."""

    @pytest.mark.parametrize("victim", list(ARTIFACT_FILES))
    def test_every_defect_in_every_section_is_typed(self, artifact, victim):
        path = artifact / victim
        original = path.read_bytes()
        for number, defect, data in damaged(original):
            path.write_bytes(data)
            with pytest.raises(SnapshotError):
                load(artifact, verify=False)
        path.write_bytes(original)
        assert load(artifact, verify=False).document_count() > 0

    def test_a_format_1_artifact_is_refused_by_version(self, artifact):
        edit_manifest(artifact, lambda data: {**data, "format_version": 1})
        with pytest.raises(SnapshotError, match="format_version 1"):
            load(artifact, verify=False)


class TestVersionSkewIsTyped:
    def test_future_format_version_is_refused(self, artifact):
        edit_manifest(artifact, lambda data: {
            **data, "format_version": OFFLINE_FORMAT_VERSION + 1})
        with pytest.raises(SnapshotError, match="format_version"):
            load(artifact)

    def test_analyzer_skew_is_refused(self, artifact):
        # an artifact tokenized differently would silently miss at
        # query time; the fingerprint turns that into a load error
        edit_manifest(artifact, lambda data: {
            **data,
            "analyzer": {**data["analyzer"], "stemmer": "porter-2025"}})
        with pytest.raises(SnapshotError, match="analyzer"):
            load(artifact)


class TestVerifyKnob:
    def test_verify_false_skips_only_the_checksum_pass(self, artifact):
        reader = load(artifact, verify=False)
        assert reader.document_count() > 0
        # structural + version checks still run without verification
        edit_manifest(artifact, lambda data: {
            **data, "format_version": OFFLINE_FORMAT_VERSION + 1})
        with pytest.raises(SnapshotError, match="format_version"):
            load(artifact, verify=False)

    def test_verified_load_of_an_intact_artifact_succeeds(self, artifact):
        assert load(artifact, verify=True).document_count() > 0
