"""The versioned Request/Response wire contract."""

import pytest

from repro.core.config import ExecutionPolicy
from repro.errors import QueryError
from repro.service.api import (MODES, SCHEMA_VERSION, Hit, SearchRequest,
                               SearchResponse, response_from_ranking)

pytestmark = pytest.mark.service


class TestSearchRequest:
    def test_roundtrips_through_the_wire_shape(self):
        request = SearchRequest(query="trophy", mode="content",
                                policy=ExecutionPolicy(n=7, prune=False),
                                trace_id="t-1")
        assert SearchRequest.from_dict(request.to_dict()) == request

    def test_to_dict_is_stamped(self):
        payload = SearchRequest(query="trophy").to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_empty_query_is_rejected(self):
        with pytest.raises(QueryError):
            SearchRequest(query="   ")

    def test_unknown_mode_is_rejected_naming_the_modes(self):
        with pytest.raises(QueryError, match="mode"):
            SearchRequest(query="trophy", mode="semantic")
        assert {"conceptual", "content", "fragmented"} == set(MODES)

    def test_from_dict_rejects_future_schema_versions(self):
        payload = SearchRequest(query="trophy").to_dict()
        payload["schema_version"] = 99
        with pytest.raises(QueryError, match="schema_version"):
            SearchRequest.from_dict(payload)

    def test_from_dict_rejects_unknown_fields(self):
        payload = SearchRequest(query="trophy").to_dict()
        payload["limit"] = 10
        with pytest.raises(QueryError, match="limit"):
            SearchRequest.from_dict(payload)

    def test_from_dict_rejects_unknown_policy_knobs(self):
        payload = SearchRequest(query="trophy").to_dict()
        payload["policy"]["parallelism"] = 4
        with pytest.raises(QueryError, match="parallelism"):
            SearchRequest.from_dict(payload)

    def test_requests_are_immutable(self):
        request = SearchRequest(query="trophy")
        with pytest.raises(AttributeError):
            request.query = "changed"


class TestSearchResponse:
    def _response(self) -> SearchResponse:
        request = SearchRequest(query="trophy", mode="content")
        return response_from_ranking(
            request, [("doc:a", 0.9), ("doc:b", 0.4)], elapsed_ms=1.5,
            tuples_touched=12)

    def test_to_dict_is_stamped_and_carries_the_request(self):
        payload = self._response().to_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["query"] == "trophy"
        assert payload["mode"] == "content"
        assert [hit["key"] for hit in payload["hits"]] == ["doc:a", "doc:b"]
        assert payload["timings"]["total_ms"] == 1.5

    def test_annotate_replaces_without_mutation(self):
        response = self._response()
        annotated = response.annotate(queue_ms=3.0, coalesced=True)
        assert annotated.queue_ms == 3.0 and annotated.coalesced
        assert response.queue_ms == 0.0 and not response.coalesced
        assert annotated.hits == response.hits

    def test_hits_are_value_objects(self):
        hit = Hit(key="doc:a", score=0.5)
        assert hit.to_dict() == {"key": "doc:a", "score": 0.5, "values": {}}
