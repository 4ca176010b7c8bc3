"""E12: the integrated engine and the paper's headline mixed query."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SearchEngine
from repro.errors import QueryError
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema


@pytest.fixture(scope="module")
def engine():
    server, truth = build_ausopen_site(players=10, articles=8, videos=4,
                                       frames_per_shot=8)
    schema = australian_open_schema()
    engine = SearchEngine(schema, server, EngineConfig(fragment_count=4))
    report = engine.populate()
    return engine, truth, report


def _mixed_query(engine):
    return (engine.new_query()
            .from_class("p", "Player")
            .where("p.gender", "==", "female")
            .where("p.plays", "==", "left")
            .contains("p.history", "Winner")
            .from_class("v", "Video")
            .join("Features", "v", "p")
            .video_event("v.video", "netplay")
            .select("p.name", "v.title", "v.video"))


class TestPopulation:
    def test_report_counts(self, engine):
        _, truth, report = engine
        assert report.documents_stored == (len(truth.players)
                                           + len(truth.articles)
                                           + len(truth.videos))
        assert report.videos_analyzed == len(truth.videos)
        assert report.hypertexts_indexed \
            == len(truth.players) + len(truth.articles)

    def test_meta_store_holds_video_and_audio_trees(self, engine):
        search, truth, _ = engine
        interviews = sum(1 for p in truth.players if p.interview_path)
        assert len(search.meta_store) == len(truth.videos) + interviews

    def test_stats_surface(self, engine):
        search, _, _ = engine
        stats = search.stats()
        assert stats["conceptual"]["buns"] > 0
        assert stats["meta"]["buns"] > 0
        assert stats["videos"] > 0


class TestMixedQuery:
    def test_headline_query_returns_ground_truth(self, engine):
        """'Show me video shots of left-handed female players, who have
        won the Australian Open in the past, and in which they approach
        the net.'"""
        search, truth, _ = engine
        result = search.query(_mixed_query(search))
        answers = sorted((row.keys["p"], row.keys["v"]) for row in result)
        assert answers == truth.mixed_query_answer()

    def test_result_carries_shots(self, engine):
        search, truth, _ = engine
        result = search.query(_mixed_query(search))
        for row in result:
            shots = row.shots["v"]
            assert shots, "event predicate must attach matching shots"
            for shot in shots:
                assert shot.event == "netplay"
                assert 0 <= shot.begin <= shot.end

    def test_shots_match_video_ground_truth(self, engine):
        search, truth, _ = engine
        result = search.query(_mixed_query(search))
        for row in result:
            video = next(v for v in truth.videos if v.key == row.keys["v"])
            payload = search.video_library.get(
                search.server.absolute(video.media_path))
            truth_ranges = payload.truth.shot_ranges(payload.frame_count)
            expected = {truth_ranges[i]
                        for i in payload.truth.netplay_shots}
            assert {(s.begin, s.end) for s in row.shots["v"]} == expected

    def test_projection_values(self, engine):
        search, truth, _ = engine
        result = search.query(_mixed_query(search))
        row = result.rows[0]
        assert row.value("p.name") == "Monica Seles"
        assert row.value("v.video").endswith(".mpg")

    def test_content_score_ranks_rows(self, engine):
        search, _, _ = engine
        result = search.query(_mixed_query(search))
        scores = [row.score for row in result]
        assert scores == sorted(scores, reverse=True)
        assert all(score > 0 for score in scores)


class TestConceptualQueries:
    def test_single_class_attribute_query(self, engine):
        search, truth, _ = engine
        query = (search.new_query()
                 .from_class("p", "Player")
                 .where("p.plays", "==", "left")
                 .select("p.name")
                 .top(50))
        result = search.query(query)
        expected = sorted(p.name for p in truth.players
                          if p.plays == "left")
        assert sorted(result.column("p.name")) == expected

    def test_cross_document_join(self, engine):
        """'integrate information stored in different documents in a
        single query' — articles and players live in separate pages."""
        search, truth, _ = engine
        query = (search.new_query()
                 .from_class("a", "Article")
                 .from_class("p", "Player")
                 .join("About", "a", "p")
                 .where("p.name", "==", "Monica Seles")
                 .select("a.title")
                 .top(50))
        result = search.query(query)
        expected = sorted(a.title for a in truth.articles
                          if "monica-seles" in a.about)
        assert sorted(result.column("a.title")) == expected

    def test_content_only_query(self, engine):
        search, truth, _ = engine
        query = (search.new_query()
                 .from_class("p", "Player")
                 .contains("p.history", "Winner championship")
                 .select("p.name")
                 .top(50))
        result = search.query(query)
        champions = {p.name for p in truth.players if p.is_champion}
        assert set(result.column("p.name")) == champions

    def test_event_only_query(self, engine):
        search, truth, _ = engine
        query = (search.new_query()
                 .from_class("v", "Video")
                 .video_event("v.video", "netplay")
                 .select("v.title")
                 .top(50))
        result = search.query(query)
        expected = {v.title for v in truth.videos if v.netplay}
        assert set(result.column("v.title")) == expected

    def test_foreign_query_rejected(self, engine):
        search, _, _ = engine
        other = australian_open_schema()
        from repro.webspace.query import WebspaceQuery
        foreign = (WebspaceQuery(other).from_class("p", "Player")
                   .select("p.name"))
        with pytest.raises(QueryError):
            search.query(foreign)

    def test_empty_result_when_nothing_matches(self, engine):
        search, _, _ = engine
        query = (search.new_query()
                 .from_class("p", "Player")
                 .where("p.name", "==", "Nobody Atall")
                 .select("p.name"))
        assert len(search.query(query)) == 0


class TestNoReferenceCycle:
    """Regression: the FDS held the engine through a bound method, so a
    dropped engine — relations, postings index and all — lived until a
    full garbage collection.  Reference counting alone must free it."""

    def test_a_dropped_engine_is_freed_without_the_cyclic_gc(self):
        import gc
        import weakref

        server, _ = build_ausopen_site(players=2, articles=1, videos=1,
                                       frames_per_shot=2)
        gc.collect()
        gc.disable()
        try:
            engine = SearchEngine(australian_open_schema(), server,
                                  EngineConfig(fragment_count=2))
            engine.populate()
            engine.ir.relations.postings_index()
            dropped = (weakref.ref(engine), weakref.ref(engine.ir.relations))
            del engine
            assert [ref() for ref in dropped] == [None, None]
        finally:
            gc.enable()

    def test_source_stamps_still_track_the_server(self):
        server, _ = build_ausopen_site(players=2, articles=1, videos=1,
                                       frames_per_shot=2)
        engine = SearchEngine(australian_open_schema(), server)
        engine.populate()
        assert len(engine.fds) and engine.fds.check_all_sources() == 0


class TestConceptualMemo:
    def test_direct_store_write_is_seen_by_the_next_query(self):
        """A write straight into the conceptual store — no engine write
        path, no hand invalidation — moves the store generation, and the
        memoized lookups follow it."""
        from repro.core.config import ExecutionPolicy
        from repro.web.crawler import crawl
        from repro.web.reengineer import reengineer_site
        from repro.webspace.documents import document_to_xml

        server, _ = build_ausopen_site(players=4, articles=2, videos=1,
                                       frames_per_shot=4)
        engine = SearchEngine(australian_open_schema(), server,
                              EngineConfig())
        engine.populate()
        source = "SELECT p.name, p.country FROM Player p"
        uncached = ExecutionPolicy(cache=False)
        engine.query_text(source, policy=uncached)   # fills the memo
        documents = reengineer_site(engine.schema, crawl(server).pages)
        document, player = next(
            (document, obj) for document in documents
            for obj in document.objects
            if obj.cls == "Player" and obj.get("country"))
        player.attributes["country"] = "Ruritania"
        engine.conceptual_store.replace(
            document.doc_id, document_to_xml(engine.schema, document))
        after = engine.query_text(source, policy=uncached)
        countries = {row.keys["p"]: row.values["p.country"]
                     for row in after.rows}
        assert countries[player.key] == "Ruritania"
