"""The executed physical plan (EXPLAIN ANALYZE)."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SearchEngine
from repro.core.plan import PlanNode, format_plan
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema


class TestPlanNode:
    def test_tree_construction(self):
        root = PlanNode("TopN", "limit=5")
        child = root.add(PlanNode("Rank"))
        child.counter("rows", 3)
        assert root.children == [child]
        assert child.counters == {"rows": 3}

    def test_find_by_operator(self):
        root = PlanNode("A")
        root.add(PlanNode("B")).add(PlanNode("C"))
        root.add(PlanNode("B"))
        assert len(root.find("B")) == 2
        assert root.find("missing") == []

    def test_format(self):
        root = PlanNode("TopN", "limit=5", {"rows": 1})
        root.add(PlanNode("Scan", "Player"))
        text = format_plan(root)
        assert text.splitlines() == [
            "TopN limit=5  [rows=1]",
            "  Scan Player",
        ]


@pytest.fixture(scope="module")
def engine():
    server, truth = build_ausopen_site(players=8, articles=6, videos=3,
                                       frames_per_shot=6)
    engine = SearchEngine(australian_open_schema(), server, EngineConfig())
    engine.populate()
    return engine, truth


class TestExecutedPlans:
    def test_mixed_query_plan_shape(self, engine):
        search, _ = engine
        result = search.query_text(
            "SELECT p.name, v.title FROM Player p, Video v "
            "WHERE p.gender = 'female' AND p.plays = 'left' "
            "AND p.history CONTAINS 'Winner' AND v Features p "
            "AND v.video EVENT netplay TOP 5")
        plan = result.plan
        assert plan.operator == "TopN"
        assert len(plan.find("Bind")) == 2
        assert len(plan.find("AttrSelect")) == 2
        assert len(plan.find("IrProbe")) == 1
        assert len(plan.find("MetaProbe")) == 1
        assert len(plan.find("AssocJoin")) == 1

    def test_counters_narrow_monotonically(self, engine):
        search, truth = engine
        result = search.query_text(
            "SELECT p.name FROM Player p WHERE p.gender = 'female' "
            "AND p.plays = 'left' TOP 50")
        selects = result.plan.find("AttrSelect")
        for node in selects:
            assert node.counters["out"] <= node.counters["in"]
        bind = result.plan.find("Bind")[0]
        assert bind.counters["instances"] == len(truth.players)

    def test_explain_renders(self, engine):
        search, _ = engine
        result = search.query_text(
            "SELECT p.name FROM Player p WHERE p.plays = 'left'")
        text = result.explain()
        assert "TopN" in text
        assert "AttrSelect p.plays == 'left'" in text

    def test_audio_probe_in_plan(self, engine):
        search, _ = engine
        result = search.query(
            search.new_query().from_class("p", "Player")
            .audio_event("p.interview", "speech").select("p.name"))
        assert len(result.plan.find("AudioProbe")) == 1

    def test_meta_probes_count_the_meta_rows_they_read(self, engine):
        """``tuples`` on a probe node is the meta-store rows its probes
        read; ``tuples_touched`` stays the conceptual store's."""
        search, _ = engine
        for _ in range(2):  # the same plan reads the same rows
            result = search.query_text(
                "SELECT v.title FROM Video v WHERE v.video EVENT netplay")
            (probe,) = result.plan.find("MetaProbe")
            assert probe.counters == {"in": 3, "out": 2, "tuples": 119}
            assert result.tuples_touched \
                == search.conceptual_store.server.tuples_touched
        result = search.query(
            search.new_query().from_class("p", "Player")
            .audio_event("p.interview", "speech").select("p.name"))
        (probe,) = result.plan.find("AudioProbe")
        assert probe.counters == {"in": 8, "out": 2, "tuples": 100}
        assert "tuples=100" in result.explain()

    def test_plan_rows_counter_matches_result(self, engine):
        search, _ = engine
        result = search.query_text(
            "SELECT p.name FROM Player p WHERE p.gender = 'male' TOP 3")
        assert result.plan.counters["rows"] == len(result.rows)
