"""Acceptance: the static reader is bit-identical to the live service.

Every schema-2 query shape the query-language suite pins down — plus
the v1 dialect and the rich request extras (facets, filters, sort,
pagination, boosts) — is answered twice: once by a
:class:`~repro.service.SearchService` over the live engine, once by a
:class:`~repro.offline.StaticIndexReader` over that engine's exported
artifact.  Everything except the timings must compare equal — scores
included, not just the order.
"""

import pytest

from repro.offline import StaticIndexReader, export_index
from repro.persistence import FORMAT_VERSION
from repro.service import SearchRequest, SearchService
from repro.service.api import SCHEMA_VERSION_V2

from tests.query.test_parity import SHAPES

pytestmark = pytest.mark.offline


def comparable(response) -> dict:
    """The wire dict minus the only legitimately divergent field."""
    payload = response.to_dict()
    payload.pop("timings")
    return payload


def serve_and_read(engine, reader, request):
    with SearchService(engine) as service:
        served = service.search(request)
    static = reader.execute(request)
    return comparable(served), comparable(static)


class TestSchema2Shapes:
    @pytest.mark.parametrize("source", SHAPES)
    @pytest.mark.parametrize("mode", ["content", "fragmented"])
    def test_rich_query_shapes_are_bit_identical(self, engine, reader,
                                                 source, mode):
        request = SearchRequest(query=source, mode=mode,
                                schema_version=SCHEMA_VERSION_V2)
        served, static = serve_and_read(engine, reader, request)
        assert served == static

    def test_facets_filters_sort_and_pagination(self, engine, reader):
        request = SearchRequest(
            query="digital OR database OR retrieval",
            mode="content", schema_version=SCHEMA_VERSION_V2,
            filters=(("year", "1990-2001"),),
            facets=("class", "attribute"),
            sort=(("attribute", "asc"), ("score", "desc")),
            limit=3, offset=1)
        served, static = serve_and_read(engine, reader, request)
        assert served == static
        assert static["facets"]  # the shape actually exercised facets
        assert static["total"] is not None

    def test_boosted_fields_are_bit_identical(self, engine, reader):
        request = SearchRequest(
            query="library search", mode="content",
            schema_version=SCHEMA_VERSION_V2,
            boosts=(("title", 4.0), ("abstract", 2.0)))
        served, static = serve_and_read(engine, reader, request)
        assert served == static
        assert any(hit["score"] > 0.0 for hit in static["hits"])


class TestV1Dialect:
    @pytest.mark.parametrize("mode", ["content", "fragmented"])
    def test_v1_requests_are_bit_identical(self, engine, reader, mode):
        request = SearchRequest(query="digital library retrieval",
                                mode=mode)
        served, static = serve_and_read(engine, reader, request)
        assert served == static
        assert served["schema_version"] == 1


class TestReaderSemantics:
    def test_conceptual_mode_is_a_typed_refusal(self, reader):
        from repro.errors import QueryError

        with pytest.raises(QueryError, match="integrated"):
            reader.execute(SearchRequest(query="x", mode="conceptual"))

    def test_generation_matches_the_exporting_engine(self, engine,
                                                     reader):
        assert reader.generation == engine.generation
        assert reader.document_count() \
            == engine.relations.document_count()
        assert reader.vocabulary_size() \
            == engine.relations.vocabulary_size()

    def test_stats_summarize_the_artifact(self, reader, artifact):
        stats = reader.stats()
        assert stats["directory"] == str(artifact)
        assert stats["format_version"] == FORMAT_VERSION == 6
        assert stats["schema_version"] == SCHEMA_VERSION_V2
        assert stats["documents"] == reader.document_count()
        assert stats["bytes"] > 0

    def test_reader_needs_no_service_and_no_locks(self, reader):
        # the whole point of the offline tier: a plain object, usable
        # concurrently without admission control — two back-to-back
        # executions observe the same immutable artifact
        request = SearchRequest(query="digital library", mode="content",
                                schema_version=SCHEMA_VERSION_V2)
        first = reader.execute(request).to_dict()
        second = reader.execute(request).to_dict()
        first.pop("timings"), second.pop("timings")
        # the second run may be a cache hit inside the private engine;
        # the ranking surface must not move
        first.pop("cache_hit"), second.pop("cache_hit")
        assert first == second


def write(engine) -> None:
    """An add, a reindex whose text drops terms, and a remove."""
    engine.index("Paper:p99:title", "digital library retrieval kernels")
    engine.reindex("Paper:p01:title", "flexible search")
    engine.remove("Article:a02:title")


class TestAWrittenRestart:
    """A loaded engine that takes writes derives its pair relations from
    the loaded segment; exported and loaded again, it still answers
    every shape bit-identically to the live engine that took the same
    writes."""

    @pytest.mark.parametrize("source", SHAPES)
    @pytest.mark.parametrize("mode", ["content", "fragmented"])
    def test_every_shape_after_writes_save_and_load(self, engine, tmp_path,
                                                    source, mode):
        # tfs above 1 in the loaded segment: a mis-derived TF shows
        engine.index("Paper:p98:title", "kernels kernels digital digital "
                     "digital library ranking ranking")
        restarted = StaticIndexReader(
            export_index(engine, tmp_path / "first"))._engine
        write(restarted)
        write(engine)
        again = StaticIndexReader(export_index(restarted, tmp_path / "again"))
        request = SearchRequest(query=source, mode=mode,
                                schema_version=SCHEMA_VERSION_V2)
        served, static = serve_and_read(engine, again, request)
        assert served == static
