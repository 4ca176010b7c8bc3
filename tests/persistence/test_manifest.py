"""The versioned, checksummed manifest and its integrity checks."""

import json

import pytest

from repro.core.config import EngineConfig
from repro.errors import SnapshotError
from repro.persistence import (FORMAT_VERSION, MANIFEST_NAME, FileStamp,
                               Manifest, config_from_dict, config_to_dict,
                               sha256_file, stamp_file, verify_files)

pytestmark = pytest.mark.persistence


def small_manifest(directory, **files):
    """A manifest over literal file contents written into ``directory``."""
    stamps = {}
    for name, content in files.items():
        path = directory / name
        path.write_text(content)
        stamps[name] = stamp_file(path, records=content.count("\n") + 1)
    manifest = Manifest(schema="test", config=EngineConfig(), generation=1,
                        files=stamps, generations={"ir": 1})
    manifest.save(directory)
    return manifest


class TestRoundTrip:
    def test_manifest_survives_save_load(self, tmp_path):
        manifest = small_manifest(tmp_path, **{"ir.bats": "one\ntwo"})
        loaded = Manifest.load(tmp_path)
        assert loaded.schema == manifest.schema
        assert loaded.generation == manifest.generation
        assert loaded.format_version == FORMAT_VERSION
        assert loaded.files == manifest.files
        assert loaded.config == manifest.config

    def test_full_config_round_trips(self, full_config):
        # the bugfix this layer exists for: cluster_size and the whole
        # execution policy used to be dropped on the floor
        assert config_from_dict(config_to_dict(full_config)) == full_config

    def test_clustered_config_round_trips(self):
        config = EngineConfig(cluster_size=4)
        assert config_from_dict(config_to_dict(config)).cluster_size == 4

    def test_each_kind_records_only_its_own_fields(self, tmp_path):
        stamp = {"ir.bats": FileStamp(sha256="0" * 64, bytes=1, records=1)}
        artifact = Manifest(kind="artifact", generation=7, files=stamp,
                            config=EngineConfig(),
                            analyzer={"stemmer": "s"})
        node = Manifest(kind="node", generation=7, files=stamp, seq=12)
        assert set(artifact.to_dict()) == {"format_version", "kind",
                                           "generation", "files", "config",
                                           "analyzer"}
        assert set(node.to_dict()) == {"format_version", "kind",
                                       "generation", "files", "seq"}
        for manifest in (artifact, node):
            manifest.save(tmp_path)
            assert Manifest.load(tmp_path, manifest.kind) == manifest

    def test_malformed_config_raises(self):
        with pytest.raises(SnapshotError):
            config_from_dict({"no_such_field": 1})


class TestLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotError):
            Manifest.load(tmp_path)

    def test_torn_manifest_json(self, tmp_path):
        small_manifest(tmp_path, **{"ir.bats": "x"})
        path = tmp_path / MANIFEST_NAME
        path.write_text(path.read_text()[:25])
        with pytest.raises(SnapshotError):
            Manifest.load(tmp_path)

    def test_unsupported_format_version(self, tmp_path):
        small_manifest(tmp_path, **{"ir.bats": "x"})
        path = tmp_path / MANIFEST_NAME
        data = json.loads(path.read_text())
        data["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(SnapshotError, match="format_version"):
            Manifest.load(tmp_path)

    def test_malformed_file_stamp(self):
        with pytest.raises(SnapshotError):
            FileStamp.from_dict({"sha256": "abc"})


class TestVerifyFiles:
    def test_intact_files_pass(self, tmp_path):
        manifest = small_manifest(tmp_path, **{"ir.bats": "one\ntwo"})
        verify_files(tmp_path, manifest)  # does not raise

    def test_missing_file_detected(self, tmp_path):
        manifest = small_manifest(tmp_path, **{"ir.bats": "one"})
        (tmp_path / "ir.bats").unlink()
        with pytest.raises(SnapshotError, match="missing"):
            verify_files(tmp_path, manifest)

    def test_truncation_detected(self, tmp_path):
        manifest = small_manifest(tmp_path, **{"ir.bats": "one\ntwo\nthree"})
        path = tmp_path / "ir.bats"
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(SnapshotError, match="truncated"):
            verify_files(tmp_path, manifest)

    def test_bit_flip_detected(self, tmp_path):
        manifest = small_manifest(tmp_path, **{"ir.bats": "one\ntwo"})
        path = tmp_path / "ir.bats"
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01  # same size, different content
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            verify_files(tmp_path, manifest)

    def test_sha256_file_matches_hashlib(self, tmp_path):
        import hashlib
        path = tmp_path / "f"
        path.write_bytes(b"abc" * 100_000)
        assert sha256_file(path) \
            == hashlib.sha256(b"abc" * 100_000).hexdigest()


class TestWalSeq:
    def test_wal_seq_round_trips(self, tmp_path):
        manifest = small_manifest(tmp_path, **{"ir.bats": "one"})
        manifest.wal_seq = 41
        manifest.save(tmp_path)
        assert Manifest.load(tmp_path).wal_seq == 41

    def test_absent_wal_seq_loads_as_none(self, tmp_path):
        """Pre-WAL manifests (and WAL-less saves) have no field."""
        manifest = small_manifest(tmp_path, **{"ir.bats": "one"})
        assert manifest.wal_seq is None
        data = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert "wal_seq" not in data
        assert Manifest.load(tmp_path).wal_seq is None
