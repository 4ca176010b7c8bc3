"""Engine and store snapshots."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SearchEngine
from repro.persistence import load_engine, save_engine
from repro.errors import CatalogError
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema
from repro.xmlstore.model import element, isomorphic
from repro.xmlstore.store import XmlStore


class TestXmlStoreSnapshot:
    def test_round_trip(self, tmp_path):
        store = XmlStore()
        doc = element("a", {"k": "v"}, element("b", None, "text"))
        store.insert("d1", doc)
        store.save(tmp_path / "s.bats")
        restored = XmlStore.load(tmp_path / "s.bats")
        assert "d1" in restored
        assert isomorphic(restored.reconstruct("d1"), doc)
        assert restored.paths() == store.paths()

    def test_restored_store_accepts_new_documents(self, tmp_path):
        store = XmlStore()
        store.insert("d1", element("a", None, element("b", None, "x")))
        store.save(tmp_path / "s.bats")
        restored = XmlStore.load(tmp_path / "s.bats")
        restored.insert("d2", element("a", None, element("b", None, "y")))
        values = restored.query("/a/b/text()").value_list()
        assert sorted(values) == ["x", "y"]

    def test_restored_store_supports_delete(self, tmp_path):
        store = XmlStore()
        store.insert("d1", element("a", None, element("b", None, "x")))
        store.save(tmp_path / "s.bats")
        restored = XmlStore.load(tmp_path / "s.bats")
        restored.delete("d1")
        assert "d1" not in restored

    def test_attribute_summary_restored(self, tmp_path):
        store = XmlStore()
        store.insert("d1", element("a", {"k": "v", "m": "w"}))
        store.save(tmp_path / "s.bats")
        restored = XmlStore.load(tmp_path / "s.bats")
        assert restored.query("/a/@k").value_list() == ["v"]
        assert restored.query("/a/@m").value_list() == ["w"]


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    server, truth = build_ausopen_site(players=8, articles=6, videos=3,
                                       frames_per_shot=6)
    engine = SearchEngine(australian_open_schema(), server,
                          EngineConfig(fragment_count=3))
    engine.populate()
    directory = tmp_path_factory.mktemp("engine-snapshot")
    save_engine(engine, directory)
    return engine, server, truth, directory


class TestEngineSnapshot:
    def _mixed_query(self, engine):
        return (engine.new_query()
                .from_class("p", "Player")
                .where("p.gender", "==", "female")
                .where("p.plays", "==", "left")
                .contains("p.history", "Winner")
                .from_class("v", "Video")
                .join("Features", "v", "p")
                .video_event("v.video", "netplay")
                .select("p.name", "v.title"))

    def test_reloaded_engine_answers_the_mixed_query(self, populated):
        engine, server, truth, directory = populated
        restored = load_engine(directory, australian_open_schema(), server)
        result = restored.query(self._mixed_query(restored))
        expected = truth.mixed_query_answer()
        assert sorted((r.keys["p"], r.keys["v"]) for r in result) \
            == expected

    def test_reloaded_results_identical_to_original(self, populated):
        engine, server, truth, directory = populated
        restored = load_engine(directory, australian_open_schema(), server)
        query = "SELECT p.name FROM Player p WHERE " \
                "p.history CONTAINS 'Winner' TOP 20"
        original = engine.query_text(query)
        reloaded = restored.query_text(query)
        assert original.column("p.name") == reloaded.column("p.name")
        assert [round(r.score, 9) for r in original.rows] \
            == [round(r.score, 9) for r in reloaded.rows]

    def test_config_restored_from_manifest(self, populated):
        engine, server, _, directory = populated
        restored = load_engine(directory, australian_open_schema(), server)
        assert restored.config.fragment_count == 3

    def test_schema_mismatch_rejected(self, populated):
        _, server, _, directory = populated
        from repro.web.lonelyplanet import lonely_planet_schema
        with pytest.raises(CatalogError):
            load_engine(directory, lonely_planet_schema(), server)

    def test_missing_snapshot_rejected(self, tmp_path, populated):
        _, server, _, _ = populated
        with pytest.raises(CatalogError):
            load_engine(tmp_path / "nowhere", australian_open_schema(),
                        server)
