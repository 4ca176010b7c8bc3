"""E13: the Internet-scale engine and the future-work portrait query."""

import pytest

from repro.media.internet import InternetSearchEngine
from repro.web.ausopen import build_ausopen_site
from repro.xmlstore.store import XmlStore


@pytest.fixture(scope="module")
def engine():
    server, truth = build_ausopen_site(players=10, articles=8, videos=3,
                                       frames_per_shot=6)
    engine = InternetSearchEngine(server)
    engine.populate()
    return engine, server, truth


class TestPopulation:
    def test_reference_crawl_reaches_everything(self, engine):
        search, server, _ = engine
        report = search.populate.__self__  # same engine; check stores
        assert len(search.meta_store) > 0
        # every HTML page and every image/video linked from one
        assert len(search.meta_store) == len(server)

    def test_pages_indexed_for_text(self, engine):
        search, _, truth = engine
        ranked = search.search_pages("tennis", n=50, expand=False)
        assert ranked  # articles mention tennis

    def test_parse_trees_stored_in_meta_index(self, engine):
        search, server, _ = engine
        index_url = server.absolute("index.html")
        tree = search.meta_store.reconstruct(index_url)
        assert tree.tag == "MMO"


class TestPortraitQuery:
    def test_portraits_about_champion(self, engine):
        """Fig 14's headline: portraits embedded in pages containing
        keywords semantically related to 'champion'."""
        search, server, truth = engine
        hits = search.portraits_about("champion", n=20)
        assert hits
        champion_pictures = {
            server.absolute(player.picture_path)
            for player in truth.players if player.is_champion}
        assert {hit.image_url for hit in hits} <= champion_pictures
        # Monica Seles is a champion with a portrait: she must be found
        seles = server.absolute("img/monica-seles.jpg")
        assert seles in {hit.image_url for hit in hits}

    def test_thesaurus_expansion_broadens_recall(self, engine):
        search, _, _ = engine
        # champion histories say "Winner", never the literal "champion"
        # word outside titles; expansion must find them anyway
        raw = search.search_pages("titleholder", n=20, expand=False)
        expanded = search.search_pages("titleholder", n=20, expand=True)
        assert len(expanded) >= len(raw)

    def test_non_portrait_images_never_reported(self, engine):
        search, server, _ = engine
        logo = server.absolute("img/logo.gif")
        hits = search.portraits_about("open", n=50)
        assert logo not in {hit.image_url for hit in hits}

    def test_is_portrait_predicate(self, engine):
        search, server, truth = engine
        assert search.is_portrait(
            server.absolute(truth.players[0].picture_path))
        assert not search.is_portrait(server.absolute("img/logo.gif"))
        assert not search.is_portrait("http://elsewhere/none.jpg")

    def test_page_language_detected(self, engine):
        search, server, truth = engine
        profile = server.absolute(truth.players[0].page_path)
        assert search.page_language(profile) == "en"

    def test_predicates_read_paths_not_rebuilt_trees(self, engine,
                                                     monkeypatch):
        search, server, truth = engine

        def refuse(self, key):
            raise AssertionError(f"reconstruct({key!r}) on the query path")

        monkeypatch.setattr(XmlStore, "reconstruct", refuse)
        assert search.portraits_about("champion", n=20)
        assert search.page_language(
            server.absolute(truth.players[0].page_path)) == "en"
        assert search.page_language(server.absolute("img/logo.gif")) is None
        assert search.page_language("http://elsewhere/none.html") is None
