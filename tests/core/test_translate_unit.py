"""ConceptualIndex unit behaviour (caching, merging, hooks)."""

import pytest

from repro.core.translate import ConceptualIndex, execute_query
from repro.errors import QueryError
from repro.webspace.documents import WebspaceDocument, document_to_xml
from repro.webspace.objects import AssociationInstance, WebObject
from repro.webspace.query import WebspaceQuery
from repro.webspace.schema import australian_open_schema
from repro.xmlstore.store import XmlStore


@pytest.fixture
def setting():
    schema = australian_open_schema()
    store = XmlStore()
    first = WebspaceDocument("d1", objects=[
        WebObject("Player", "seles", {"name": "Monica Seles",
                                      "gender": "female"}),
        WebObject("Article", "a1", {"title": "Day 1"}),
    ], associations=[AssociationInstance("About", "a1", "seles")])
    second = WebspaceDocument("d2", objects=[
        # an overlapping, partial view of the same player
        WebObject("Player", "seles", {"country": "USA"}),
    ], associations=[AssociationInstance("About", "a1", "seles")])
    store.insert("d1", document_to_xml(schema, first))
    store.insert("d2", document_to_xml(schema, second))
    return schema, store, ConceptualIndex(store)


class TestConceptualIndex:
    def test_keys_deduplicated_across_documents(self, setting):
        _, _, index = setting
        assert index.keys_of("Player") == {"seles"}

    def test_attribute_values_merge_partial_views(self, setting):
        _, _, index = setting
        assert index.attribute_values("Player", "name") \
            == {"seles": "Monica Seles"}
        assert index.attribute_values("Player", "country") \
            == {"seles": "USA"}

    def test_association_pairs_deduplicated(self, setting):
        _, _, index = setting
        assert index.association_pairs("About") == [("a1", "seles")]

    def test_unknown_class_yields_empty(self, setting):
        _, _, index = setting
        assert index.keys_of("Video") == set()
        assert index.attribute_values("Video", "title") == {}
        assert index.association_pairs("Features") == []

    def test_cache_serves_without_touching_tuples(self, setting):
        _, store, index = setting
        index.keys_of("Player")
        store.server.reset_accounting()
        index.keys_of("Player")
        assert store.server.tuples_touched == 0

    def test_invalidate_refreshes_after_store_change(self, setting):
        schema, store, index = setting
        assert index.keys_of("Player") == {"seles"}
        extra = WebspaceDocument("d3", objects=[
            WebObject("Player", "novak", {"name": "Talia Novak"})])
        store.insert("d3", document_to_xml(schema, extra))
        # the insert moved the store generation: no hand invalidation
        assert index.keys_of("Player") == {"seles", "novak"}


class TestExecuteQueryHooks:
    def test_audio_predicate_without_hook_raises(self, setting):
        schema, _, index = setting
        query = (WebspaceQuery(schema)
                 .from_class("p", "Player")
                 .audio_event("p.interview", "speech")
                 .select("p.name"))
        with pytest.raises(QueryError):
            execute_query(query, index,
                          content_search=lambda *a: {},
                          event_search=lambda *a: [])

    def test_content_hook_scores_flow_into_rows(self, setting):
        schema, _, index = setting
        query = (WebspaceQuery(schema)
                 .from_class("p", "Player")
                 .contains("p.history", "whatever")
                 .select("p.name"))
        result = execute_query(
            query, index,
            content_search=lambda cls, attr, text: {"seles": 2.5},
            event_search=lambda *a: [])
        assert len(result) == 1
        assert result.rows[0].score == 2.5

    def test_event_hook_filters_and_attaches(self, setting):
        schema, store, index = setting
        video_doc = WebspaceDocument("dv", objects=[
            WebObject("Video", "v1", {"title": "Final",
                                      "video": "http://m/v1.mpg"})])
        store.insert("dv", document_to_xml(schema, video_doc))
        query = (WebspaceQuery(schema)
                 .from_class("v", "Video")
                 .video_event("v.video", "netplay")
                 .select("v.title"))
        result = execute_query(
            query, index,
            content_search=lambda *a: {},
            event_search=lambda url, event: [(3, 9)])
        assert result.rows[0].shots["v"][0].begin == 3
