"""Full engine round trips: config, generations, FDS state, clusters."""

import json

import pytest

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.errors import CatalogError, SnapshotError
from repro.persistence import MANIFEST_NAME, load_engine, save_engine
from repro.service import SearchRequest
from repro.service.api import SCHEMA_VERSION_V2
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema

from tests.persistence.conftest import build_engine
from tests.query.test_parity import SHAPES

pytestmark = pytest.mark.persistence

QUERY = "SELECT p.name FROM Player p WHERE " \
        "p.history CONTAINS 'Winner' TOP 20"


def round_trip(engine, server, tmp_path, **load_kwargs):
    save_engine(engine, tmp_path)
    return load_engine(tmp_path, australian_open_schema(), server,
                       **load_kwargs)


class TestAWrittenRestart:
    """A restored engine that takes writes derives its pair relations
    from the loaded segment; saved and loaded again, it answers every
    schema-2 shape exactly like the live engine that took the same
    writes."""

    @staticmethod
    def write(ir, removed: str) -> None:
        ir.index("Article:late:body", "digital library champion trophy")
        ir.reindex("Article:later:body", "retrieval ranking database")
        ir.remove(removed)

    def test_every_shape_after_writes_save_and_load(self, tmp_path):
        engine, server, _ = build_engine()
        # tfs above 1 in the loaded segment: a mis-derived TF shows
        engine.ir.index("Article:early:body", "melbourne melbourne park "
                        "park park final tournament tournament")
        restored = round_trip(engine, server, tmp_path / "first")
        removed = sorted(engine.ir.relations._doc_oids)[0]
        for target in (engine, restored):
            self.write(target.ir, removed)
        again = round_trip(restored, server, tmp_path / "second")
        for source in SHAPES + ["melbourne park", "final NOT tournament"]:
            for mode in ("content", "fragmented"):
                request = SearchRequest(query=source, mode=mode,
                                        schema_version=SCHEMA_VERSION_V2)
                live, loaded = (target.execute(request).to_dict()
                                for target in (engine, again))
                live.pop("timings"), loaded.pop("timings")
                assert live == loaded, (source, mode)


class TestConfigRoundTrip:
    def test_every_config_field_round_trips(self, tmp_path):
        # regression: an old manifest dropped cluster_size and the
        # execution policy (silently); every field is set here
        config = EngineConfig(
            cluster_size=2, fragment_count=5, top_n=7,
            crawl_seed="players.html",
            execution=ExecutionPolicy(n=7, max_workers=2, retries=1,
                                      on_failure="degrade", cache_size=64))
        server, _ = build_ausopen_site(players=4, articles=2, videos=1,
                                       frames_per_shot=4)
        engine = SearchEngine(australian_open_schema(), server, config)
        engine.populate()
        restored = round_trip(engine, server, tmp_path)
        assert restored.config == config

    def test_cluster_size_round_trips(self, tmp_path):
        engine, server, _ = build_engine(cluster_size=3)
        restored = round_trip(engine, server, tmp_path)
        assert restored.config.cluster_size == 3
        from repro.ir.engine import ClusterIrEngine
        assert isinstance(restored.ir, ClusterIrEngine)


class TestStateRoundTrip:
    def test_query_results_identical(self, populated, tmp_path):
        engine, server, _ = populated
        restored = round_trip(engine, server, tmp_path)
        assert engine.query_text(QUERY).column("p.name") \
            == restored.query_text(QUERY).column("p.name")

    def test_store_generations_round_trip(self, populated, tmp_path):
        engine, server, _ = populated
        restored = round_trip(engine, server, tmp_path)
        assert restored.conceptual_store.generation \
            == engine.conceptual_store.generation
        assert restored.meta_store.generation \
            == engine.meta_store.generation
        assert restored.ir.relations.generation \
            == engine.ir.relations.generation

    def test_fds_state_round_trips(self, populated, tmp_path):
        from repro.persistence import encode_tree
        engine, server, _ = populated
        restored = round_trip(engine, server, tmp_path)
        assert len(restored.fds) == len(engine.fds)
        assert restored.fds.known_versions() == engine.fds.known_versions()
        for key in engine.fds.keys():
            assert encode_tree(restored.fds.tree(key)) \
                == encode_tree(engine.fds.tree(key))


class TestIncrementalMaintenanceAfterRestore:
    def test_minor_bump_after_restore_is_incremental(self, tmp_path):
        # the acceptance criterion: a detector bump after restore
        # schedules revalidations, not a full re-populate
        engine, server, _ = build_engine()
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path, australian_open_schema(), server)
        restored.upgrade_detector("tennis", "1.1.0")
        report = restored.maintain()
        assert report.tasks_processed > 0
        assert report.trees_regenerated == 0

    def test_restored_maintenance_matches_original(self, tmp_path):
        engine, server, _ = build_engine()
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path, australian_open_schema(), server)
        restored.upgrade_detector("tennis", "1.1.0")
        engine.upgrade_detector("tennis", "1.1.0")
        restored_report = restored.maintain()
        original_report = engine.maintain()
        assert restored_report.tasks_processed \
            == original_report.tasks_processed
        assert restored_report.detectors_rerun \
            == original_report.detectors_rerun
        assert restored_report.nodes_invalidated \
            == original_report.nodes_invalidated

    def test_source_change_detected_after_restore(self, tmp_path):
        engine, server, _ = build_engine()
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path, australian_open_schema(), server)
        # unchanged sources: the restored stamps still match
        assert restored.fds.check_all_sources() == 0


class TestClusterRoundTrip:
    def test_cluster_query_results_identical(self, tmp_path):
        engine, server, _ = build_engine(cluster_size=3)
        restored = round_trip(engine, server, tmp_path)
        assert engine.query_text(QUERY).column("p.name") \
            == restored.query_text(QUERY).column("p.name")

    def test_per_node_files_written(self, tmp_path):
        engine, server, _ = build_engine(cluster_size=3)
        path = save_engine(engine, tmp_path)
        names = {entry.name for entry in path.iterdir()}
        assert {"ir.bats", "ir-node0.bats", "ir-node1.bats",
                "ir-node2.bats"} <= names

    def test_restored_cluster_keeps_strided_oids(self, tmp_path):
        engine, server, _ = build_engine(cluster_size=3)
        restored = round_trip(engine, server, tmp_path)
        # new documents land on nodes whose oid sequences must not
        # collide with restored (or each other's) oids
        for i in range(6):
            restored.ir.reindex(f"new:doc{i}", f"fresh text {i} winner")
        urls = restored.ir.search_urls("winner")
        assert urls  # the restored cluster answers over old + new docs


class TestOldLayoutsAreRefused:
    """Format 1 (flat) and format 2 (JSON-lines generations) snapshots
    are typed errors naming their version, never a half-load."""

    def test_flat_format_1_snapshot_is_refused(self, populated, tmp_path):
        engine, server, _ = populated
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "ir.jsonl").write_text('{"format": 1, "next_oid": 0}\n')
        (legacy / "engine.json").write_text(json.dumps({
            "schema": engine.schema.name,
            "fragment_count": engine.config.fragment_count}))
        with pytest.raises(SnapshotError, match="format_version 1"):
            load_engine(legacy, australian_open_schema(), server)

    def test_format_2_generation_is_refused(self, populated, tmp_path):
        engine, server, _ = populated
        path = save_engine(engine, tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["format_version"] = 2
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        for on_corrupt in ("raise", "fallback"):
            with pytest.raises(SnapshotError, match="format_version 2"):
                load_engine(tmp_path, australian_open_schema(), server,
                            on_corrupt=on_corrupt)

    def test_format_3_generation_is_refused(self, populated, tmp_path):
        """Format 3 kept the same containers under ``engine.json``."""
        engine, server, _ = populated
        path = save_engine(engine, tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        del manifest["kind"]
        (path / "engine.json").write_text(json.dumps(
            {**manifest, "format_version": 3}))
        (path / MANIFEST_NAME).unlink()
        for on_corrupt in ("raise", "fallback"):
            with pytest.raises(SnapshotError, match="format_version 3"):
                load_engine(tmp_path, australian_open_schema(), server,
                            on_corrupt=on_corrupt)


class TestLoadArguments:
    def test_invalid_on_corrupt_value(self, populated, snapshot_root):
        _, server, _ = populated
        with pytest.raises(ValueError):
            load_engine(snapshot_root, australian_open_schema(), server,
                        on_corrupt="ignore")

    def test_missing_snapshot_raises_typed_error(self, populated, tmp_path):
        _, server, _ = populated
        with pytest.raises(SnapshotError):
            load_engine(tmp_path / "nowhere", australian_open_schema(),
                        server)

    def test_schema_mismatch_is_not_corruption(self, populated,
                                               snapshot_root):
        # a mismatch must not trigger fallback: it raises CatalogError
        # (not SnapshotError) even under on_corrupt="fallback"
        _, server, _ = populated
        from repro.web.lonelyplanet import lonely_planet_schema
        with pytest.raises(CatalogError) as excinfo:
            load_engine(snapshot_root, lonely_planet_schema(), server,
                        on_corrupt="fallback")
        assert not isinstance(excinfo.value, SnapshotError)
