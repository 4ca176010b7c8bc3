"""The result cache over the integrated engine, the search_urls parity
fix, the CLI cache knob, and the warm-query telemetry surface."""

import json

import pytest

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.ir.engine import ClusterIrEngine, IrEngine
from repro.service import SearchRequest, SearchService
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema

from tests.cache.conftest import corpus

pytestmark = pytest.mark.cache

CONTAINS = ("SELECT p.name FROM Player p "
            "WHERE p.history CONTAINS 'Winner' TOP 5")


@pytest.fixture(scope="module")
def search_engine():
    server, truth = build_ausopen_site(players=8, articles=4, videos=2,
                                       frames_per_shot=6)
    engine = SearchEngine(australian_open_schema(), server, EngineConfig())
    engine.populate()
    return engine, server, truth


class TestQueryTextCache:
    def test_warm_query_is_a_hit_with_identical_rows(self, search_engine):
        engine, _, _ = search_engine
        service = SearchService(engine)
        cold = service.search(SearchRequest(query=CONTAINS))
        assert not cold.cache_hit
        warm = service.search(SearchRequest(query=CONTAINS))
        assert warm.cache_hit
        assert warm.to_dict()["cache_hit"] is True
        assert [row.keys for row in warm.result.rows] \
            == [row.keys for row in cold.result.rows]
        assert [row.score for row in warm.result.rows] \
            == [row.score for row in cold.result.rows]

    def test_ir_write_invalidates_the_engine_cache(self, search_engine):
        engine, _, _ = search_engine
        service = SearchService(engine)
        service.search(SearchRequest(query=CONTAINS))
        url = next(url for _, url in engine.ir.relations.D
                   if url.endswith(":history"))
        engine.ir.reindex(url, "Winner Winner of everything")
        after = service.search(SearchRequest(query=CONTAINS))
        assert not after.cache_hit

    def test_conceptual_write_invalidates(self, search_engine):
        engine, server, truth = search_engine
        service = SearchService(engine)
        generation = engine.generation
        service.search(SearchRequest(query=CONTAINS))
        # a changed source page flows through recrawl into the
        # conceptual store, bumping its generation
        player = truth.player("monica-seles")
        page = server.get(player.page_path)
        server.add_page(player.page_path,
                        page.body.replace(">USA<", ">Ruritania<"))
        report = service.recrawl()
        assert report.documents_replaced == 1
        assert engine.generation != generation
        assert not service.search(SearchRequest(query=CONTAINS)).cache_hit

    def test_no_cache_policy_bypasses(self, search_engine):
        engine, _, _ = search_engine
        service = SearchService(engine)
        request = SearchRequest(query=CONTAINS,
                                policy=ExecutionPolicy(cache=False))
        service.search(request)
        assert not service.search(request).cache_hit
        # the hit/miss books did not move: the cache was never consulted
        assert service._results.stats() == {
            "entries": 0, "capacity": 128, "hits": 0, "misses": 0,
            "evictions": 0}


class TestSearchUrlsParity:
    """Regression: IrEngine.search_urls silently ignored ``policy``."""

    def test_single_node_honors_policy_n(self):
        ir = IrEngine()
        for url, text in corpus(documents=30):
            ir.index(url, text)
        assert len(ir.search_urls("trophy champion w0",
                                  policy=ExecutionPolicy(n=3))) == 3
        assert len(ir.search_urls("trophy champion w0",
                                  policy=ExecutionPolicy(n=7))) == 7

    def test_single_and_clustered_surfaces_agree(self):
        docs = corpus(documents=30)
        single = IrEngine(fragment_count=4)
        for url, text in docs:
            single.index(url, text)
        clustered = ClusterIrEngine(cluster_size=3, fragment_count=4)
        clustered.index.add_documents(docs)
        policy = ExecutionPolicy(n=5)
        flat = single.search_urls("trophy champion w0", policy=policy)
        distributed = clustered.search_urls("trophy champion w0",
                                            policy=policy)
        assert [url for url, _ in flat] == [url for url, _ in distributed]
        for (_, left), (_, right) in zip(flat, distributed):
            assert left == pytest.approx(right)

    def test_legacy_n_kwarg_is_rejected(self):
        ir = IrEngine()
        for url, text in corpus(documents=20):
            ir.index(url, text)
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            ir.search_urls("trophy champion", n=2)

    def test_clustered_legacy_n_kwarg_is_rejected_too(self):
        clustered = ClusterIrEngine(cluster_size=2)
        clustered.index.add_documents(corpus(documents=20))
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            clustered.search_urls("trophy champion", n=2)


class TestCliFlags:
    def test_policy_flags_include_the_cache_knobs(self):
        from repro.cli import _parser, _policy_from_args

        args = _parser().parse_args(
            ["query", "--snapshot", "snap", "--no-cache", CONTAINS])
        policy = _policy_from_args(args)
        assert policy.cache is False

    def test_cache_defaults_are_on(self):
        from repro.cli import _parser, _policy_from_args

        args = _parser().parse_args(["query", "--snapshot", "snap",
                                     CONTAINS])
        policy = _policy_from_args(args)
        assert policy.cache is True

    def test_stats_warm_reports_the_cache_hit(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "warm.json"
        code = main(["stats", "--site", "ausopen", "--players", "4",
                     "--articles", "2", "--videos", "1", "--frames", "4",
                     "--query", CONTAINS, "--warm",
                     "--json", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        counters = report["metrics"]["counters"]
        hits = [value for name, value in counters.items()
                if name.startswith("cache.hit")]
        assert sum(hits) >= 1
        assert report["meta"]["result"]["cache_hit"] is True
