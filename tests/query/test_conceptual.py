"""Schema 2 through the integrated conceptual engine and WebspaceQuery."""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SearchEngine
from repro.errors import QueryError
from repro.service import SearchService
from repro.service.api import SCHEMA_VERSION_V2, SearchRequest
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema

pytestmark = pytest.mark.query

CONTAINS = ("SELECT p.name FROM Player p "
            "WHERE p.history CONTAINS 'Winner' TOP 5")


@pytest.fixture(scope="module")
def search_engine():
    server, _ = build_ausopen_site(players=8, articles=4, videos=2,
                                   frames_per_shot=6)
    engine = SearchEngine(australian_open_schema(), server, EngineConfig())
    engine.populate()
    return engine


def v2(query, **kwargs):
    return SearchRequest(query=query, schema_version=SCHEMA_VERSION_V2,
                         **kwargs)


class TestConceptualV2:
    def test_v1_wire_shape_untouched(self, search_engine):
        payload = search_engine.execute(
            SearchRequest(query=CONTAINS)).to_dict()
        assert payload["schema_version"] == 1
        assert "facets" not in payload and "total" not in payload

    def test_facets_sort_and_pagination(self, search_engine):
        response = search_engine.execute(
            v2(CONTAINS, facets=("gender",), sort=(("name", "asc"),),
               limit=1, offset=0))
        payload = response.to_dict()
        assert payload["schema_version"] == 2
        assert payload["total"] >= len(response.hits) == 1
        assert sum(payload["facets"]["p.gender"].values()) \
            == payload["total"]

    def test_equality_filter(self, search_engine):
        unfiltered = search_engine.execute(v2(CONTAINS, limit=10))
        filtered = search_engine.execute(
            v2(CONTAINS, filters=(("gender", "female"),), limit=10))
        assert 0 < len(filtered.hits) < len(unfiltered.hits)

    def test_bare_filter_names_resolve_to_the_unique_binding(
            self, search_engine):
        qualified = search_engine.execute(
            v2(CONTAINS, filters=(("p.gender", "female"),), limit=10))
        bare = search_engine.execute(
            v2(CONTAINS, filters=(("gender", "female"),), limit=10))
        assert [h.key for h in qualified.hits] \
            == [h.key for h in bare.hits]

    def test_unknown_filter_attribute_is_a_query_error(self,
                                                       search_engine):
        with pytest.raises(QueryError):
            search_engine.execute(
                v2(CONTAINS, filters=(("colour", "blue"),)))

    def test_v2_and_v1_cache_entries_stay_apart(self, search_engine):
        service = SearchService(search_engine)
        cold_v1 = service.search(SearchRequest(query=CONTAINS))
        cold_v2 = service.search(v2(CONTAINS, limit=1))
        assert not cold_v1.cache_hit and not cold_v2.cache_hit
        assert service.search(SearchRequest(query=CONTAINS)).cache_hit
        assert service.search(v2(CONTAINS, limit=1)).cache_hit


class TestWebspaceBuilders:
    def test_contains_phrase_requires_adjacency(self, search_engine):
        loose = (search_engine.new_query().from_class("p", "Player")
                 .contains("p.history", "Australian Winner")
                 .select("p.name"))
        phrase = (search_engine.new_query().from_class("p", "Player")
                  .contains_phrase("p.history", "Australian Open")
                  .select("p.name"))
        assert len(search_engine.query(phrase).rows) > 0
        assert len(search_engine.query(loose).rows) \
            >= len(search_engine.query(phrase).rows)

    def test_contains_query_boolean(self, search_engine):
        rich = (search_engine.new_query().from_class("p", "Player")
                .contains_query("p.history", "winner AND NOT finalist")
                .select("p.name"))
        result = search_engine.query(rich)
        assert all(row.score > 0 for row in result.rows)

    def test_order_facet_skip(self, search_engine):
        query = (search_engine.new_query().from_class("p", "Player")
                 .contains("p.history", "winner")
                 .order_by("p.name").facet("p.gender").skip(1)
                 .select("p.name"))
        result = search_engine.query(query)
        assert result.total_rows is not None
        assert result.total_rows == len(result.rows) + 1
        assert "p.gender" in result.facets

    def test_builder_validation(self, search_engine):
        query = search_engine.new_query().from_class("p", "Player")
        with pytest.raises(QueryError):
            query.contains("p.history", "x", kind="fuzzy")
        with pytest.raises(QueryError):
            query.where_range("p.gender", None, None)
        with pytest.raises(QueryError):
            query.skip(-1)
