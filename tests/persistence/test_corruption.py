"""Corruption detection, fallback recovery and crash-mid-save injection."""

import pytest

from repro.errors import SnapshotError
from repro.persistence import MANIFEST_NAME, Manifest, SnapshotStore, \
    load_engine, save_engine
from repro.persistence import engine as engine_module
from repro.telemetry import telemetry_session
from repro.webspace.schema import australian_open_schema

from tests.monetdb.container import damaged, sections

pytestmark = pytest.mark.persistence

CATALOG_FILES = ["conceptual.bats", "meta.bats", "ir.bats"]
DATA_FILES = CATALOG_FILES + ["fds.json"]
QUERY = "SELECT p.name FROM Player p WHERE " \
        "p.history CONTAINS 'Winner' TOP 20"


def current_path(root):
    store = SnapshotStore(root)
    return store.path(store.current_generation())


def reload(root, server, **kwargs):
    return load_engine(root, australian_open_schema(), server, **kwargs)


class TestDetection:
    @pytest.fixture()
    def saved(self, populated, tmp_path):
        engine, server, _ = populated
        save_engine(engine, tmp_path)
        return tmp_path, server

    @pytest.mark.parametrize("name", DATA_FILES)
    def test_truncated_file_raises(self, saved, name):
        root, server = saved
        target = current_path(root) / name
        target.write_bytes(target.read_bytes()[:-7])
        with pytest.raises(SnapshotError):
            reload(root, server)

    @pytest.mark.parametrize("name", DATA_FILES)
    def test_bit_flip_raises(self, saved, name):
        root, server = saved
        target = current_path(root) / name
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x40  # same size, different content
        target.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            reload(root, server)

    def test_torn_manifest_raises(self, saved):
        root, server = saved
        target = current_path(root) / MANIFEST_NAME
        target.write_text(target.read_text()[:30])
        with pytest.raises(SnapshotError):
            reload(root, server)

    def test_deleted_data_file_raises(self, saved):
        root, server = saved
        (current_path(root) / "ir.bats").unlink()
        with pytest.raises(SnapshotError):
            reload(root, server)

    def test_verify_false_skips_checksums(self, saved):
        root, server = saved
        target = current_path(root) / "conceptual.bats"
        data = bytearray(target.read_bytes())
        # a payload byte in the middle of the largest section
        start, end = max(sections(bytes(data)),
                         key=lambda span: span[1] - span[0])
        data[(start + end) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        # without verification the manifest's SHA-256 pass is skipped;
        # the flipped section's own CRC-32 still catches it
        with pytest.raises(SnapshotError, match="CRC-32"):
            reload(root, server, verify=False)


class TestContainerChecksWithoutVerify:
    """``verify=False`` skips the manifest's SHA-256 pass, so what is
    exercised here is each container's own framing and CRC-32s."""

    @pytest.fixture()
    def saved(self, populated, tmp_path):
        engine, server, _ = populated
        save_engine(engine, tmp_path)
        return tmp_path, server

    @pytest.mark.parametrize("name", CATALOG_FILES)
    def test_every_defect_class_is_typed(self, saved, name):
        root, server = saved
        target = current_path(root) / name
        original = target.read_bytes()
        spans = sections(original)
        # the xmlstore catalogs hold hundreds of BATs: one defect of each
        # class in the first, a middle and the last section.  The IR
        # part (~15 sections) is swept exhaustively: it is the one file
        # every kind of object holds
        keep = set(range(len(spans))) if name == "ir.bats" \
            else {0, len(spans) // 2, len(spans) - 1}
        for number, defect, data in damaged(original):
            if number not in keep:
                continue
            target.write_bytes(data)
            with pytest.raises(SnapshotError):
                reload(root, server, verify=False)
        target.write_bytes(original)
        assert reload(root, server, verify=False) is not None


class TestFallback:
    @pytest.fixture()
    def two_generations(self, populated, tmp_path):
        engine, server, _ = populated
        save_engine(engine, tmp_path)
        save_engine(engine, tmp_path)
        assert SnapshotStore(tmp_path).current_generation() == 2
        return tmp_path, server, engine

    def test_fallback_degrades_to_older_intact_generation(
            self, two_generations):
        root, server, engine = two_generations
        target = SnapshotStore(root).path(2) / "ir.bats"
        target.write_bytes(target.read_bytes()[:-9])
        restored = reload(root, server, on_corrupt="fallback")
        # records the generation actually loaded, not the corrupt CURRENT
        assert restored.snapshot_generation == 1
        assert engine.query_text(QUERY).column("p.name") \
            == restored.query_text(QUERY).column("p.name")

    def test_raise_mode_does_not_fall_back(self, two_generations):
        root, server, _ = two_generations
        target = SnapshotStore(root).path(2) / "ir.bats"
        target.write_bytes(target.read_bytes()[:-9])
        with pytest.raises(SnapshotError):
            reload(root, server)  # default on_corrupt="raise"

    def test_all_generations_corrupt_raises(self, two_generations):
        root, server, _ = two_generations
        for generation in (1, 2):
            target = SnapshotStore(root).path(generation) / "ir.bats"
            target.write_bytes(target.read_bytes()[:-9])
        with pytest.raises(SnapshotError, match="no intact snapshot"):
            reload(root, server, on_corrupt="fallback")

    def test_corrupt_current_pointer_falls_back_to_disk(
            self, two_generations):
        root, server, engine = two_generations
        (root / "CURRENT").write_text("garbage")
        restored = reload(root, server, on_corrupt="fallback")
        assert engine.query_text(QUERY).column("p.name") \
            == restored.query_text(QUERY).column("p.name")

    def test_corruption_counter_increments(self, two_generations):
        root, server, _ = two_generations
        target = SnapshotStore(root).path(2) / "ir.bats"
        target.write_bytes(target.read_bytes()[:-9])
        with telemetry_session() as telemetry:
            reload(root, server, on_corrupt="fallback")
            counters = telemetry.metrics.snapshot()["counters"]
            assert counters["snapshot.corruptions"] == 1
            assert counters["snapshot.fallbacks"] == 1


class TestCrashMidSave:
    """Inject crashes into every phase of a save; the previous committed
    checkpoint must stay loadable afterwards — without any cleanup."""

    @pytest.fixture()
    def committed_once(self, populated, tmp_path):
        engine, server, _ = populated
        save_engine(engine, tmp_path)
        return tmp_path, server, engine

    def crash_during(self, monkeypatch, target, attribute):
        def explode(*args, **kwargs):
            raise OSError("simulated crash (power loss)")
        monkeypatch.setattr(target, attribute, explode)
        # a real crash never runs cleanup code: neutralize the
        # partial-directory removal so the orphan stays on disk
        monkeypatch.setattr(engine_module, "rmtree",
                            lambda *a, **k: None)

    def assert_previous_checkpoint_intact(self, root, server, engine):
        assert SnapshotStore(root).current_generation() == 1
        restored = reload(root, server)
        assert engine.query_text(QUERY).column("p.name") \
            == restored.query_text(QUERY).column("p.name")

    def test_crash_while_writing_data_files(self, committed_once,
                                            monkeypatch):
        root, server, engine = committed_once
        self.crash_during(monkeypatch, engine_module, "_write_payload")
        with pytest.raises(OSError):
            save_engine(engine, root)
        self.assert_previous_checkpoint_intact(root, server, engine)

    def test_crash_before_manifest(self, committed_once, monkeypatch):
        root, server, engine = committed_once
        self.crash_during(monkeypatch, Manifest, "save")
        with pytest.raises(OSError):
            save_engine(engine, root)
        self.assert_previous_checkpoint_intact(root, server, engine)

    def test_crash_before_pointer_flip(self, committed_once, monkeypatch):
        root, server, engine = committed_once
        self.crash_during(monkeypatch, SnapshotStore, "commit")
        with pytest.raises(OSError):
            save_engine(engine, root)
        self.assert_previous_checkpoint_intact(root, server, engine)

    def test_orphan_from_crash_is_pruned_by_next_save(self, committed_once,
                                                      monkeypatch):
        root, server, engine = committed_once
        self.crash_during(monkeypatch, SnapshotStore, "commit")
        with pytest.raises(OSError):
            save_engine(engine, root)
        monkeypatch.undo()
        path = save_engine(engine, root)  # a clean save after the crash
        store = SnapshotStore(root)
        assert store.current_generation() == 3
        assert 2 not in store.generations()  # the orphan was collected
        assert path.is_dir()
