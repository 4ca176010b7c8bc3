"""Schema-2 execution through the IR engine's structured path."""

import pytest

from repro.errors import QueryError
from repro.ir.engine import ClusterIrEngine, IrEngine
from repro.ir.relations import PackedPostings
from repro.monetdb.bat import BAT
from repro.service import SearchService
from repro.service.api import MODE_CONTENT, SearchRequest

from tests.query.conftest import ARTICLES, PAPERS, PLAIN_DOCS

pytestmark = pytest.mark.query


@pytest.fixture(scope="module")
def engine():
    engine = IrEngine(fragment_count=4)
    for key, title, abstract, year in PAPERS:
        engine.index(f"Paper:{key}:title", title)
        engine.index(f"Paper:{key}:abstract", abstract)
        engine.index(f"Paper:{key}:year", year)
    for key, title in ARTICLES:
        engine.index(f"Article:{key}:title", title)
    for url, text in PLAIN_DOCS:
        engine.index(url, text)
    return engine


def v2(query, **kwargs):
    return SearchRequest(query=query, mode=MODE_CONTENT,
                         schema_version=2, **kwargs)


class TestStructuredExecution:
    def test_plain_bag_ranks_exactly_like_v1(self, engine):
        # adjacency-is-OR keeps v1 semantics: same docs, same scores
        v1_hits = engine.execute(SearchRequest(
            query="digital library", mode=MODE_CONTENT)).hits
        v2_hits = engine.execute(v2("digital library")).hits
        assert [(h.key, h.score) for h in v1_hits] \
            == [(h.key, h.score) for h in v2_hits]

    def test_phrase_narrows_the_bag(self, engine):
        bag = engine.execute(v2("digital library"))
        phrase = engine.execute(v2('"digital library"'))
        bag_keys = {h.key for h in bag.hits}
        phrase_keys = {h.key for h in phrase.hits}
        assert phrase_keys < bag_keys
        assert "Paper:p01:title" in phrase_keys

    def test_facets_count_the_full_match_set(self, engine):
        response = engine.execute(v2("library OR database",
                                     facets=("class",), limit=1))
        assert len(response.hits) == 1  # page is limited...
        facets = dict(response.facets)
        # ...but facets and total cover every match (classless plain
        # urls count toward the total, never toward a class bucket)
        assert 1 < sum(count for _, count in facets["class"]) \
            <= response.total
        classes = {value for value, _ in facets["class"]}
        assert "Paper" in classes and "Article" in classes

    def test_sort_and_pagination(self, engine):
        everything = engine.execute(v2("library", sort=(("url", "asc"),)))
        urls = [h.key for h in everything.hits]
        assert urls == sorted(urls)
        page = engine.execute(v2("library", sort=(("url", "asc"),),
                                 limit=2, offset=1))
        assert [h.key for h in page.hits] == urls[1:3]
        assert page.total == len(urls)

    def test_range_filters(self, engine):
        response = engine.execute(v2("1999 OR 1995 OR 1989",
                                     filters=(("year", "1990-2001"),)))
        keys = {h.key for h in response.hits}
        assert keys == {"Paper:p01:year", "Paper:p02:year"}

    def test_boosts_lift_the_boosted_field(self, engine):
        boosted = engine.execute(v2("digital library",
                                    boosts=(("title", 100.0),)))
        top_keys = [h.key for h in boosted.hits[:2]]
        assert all(key.endswith(":title") for key in top_keys)

    def test_unknown_facet_is_a_query_error(self, engine):
        with pytest.raises(QueryError):
            engine.execute(v2("library", facets=("colour",)))

    def test_unknown_sort_field_is_a_query_error(self, engine):
        with pytest.raises(QueryError):
            engine.execute(v2("library", sort=(("colour", "asc"),)))

    def test_stopword_only_query_is_a_query_error(self, engine):
        with pytest.raises(QueryError):
            engine.execute(v2("the of and"))

    def test_v1_responses_unchanged_by_all_of_this(self, engine):
        response = engine.execute(SearchRequest(query="digital library",
                                                mode=MODE_CONTENT))
        payload = response.to_dict()
        assert payload["schema_version"] == 1
        assert "facets" not in payload and "total" not in payload


class TestClusterRejection:
    def test_clustered_engine_rejects_schema_2(self):
        cluster = ClusterIrEngine(2)
        with pytest.raises(QueryError):
            cluster.execute(v2("digital library"))


class TestColumnarPath:
    def test_an_execute_probes_no_document_and_decodes_each_phrase_once(
            self, monkeypatch):
        """Urls come from the index's ``urls`` column, not ``ir:D``, and
        a phrase node is evaluated once (not again for its entries)."""
        engine = IrEngine(fragment_count=4)
        shapes = (("Paper", "title"), ("Paper", "abstract"),
                  ("Article", "title"))
        for number in range(2000):
            cls, attribute = shapes[number % 3]
            engine.index(f"{cls}:k{number:04d}:{attribute}",
                         f"w{number % 7} digital library w{number % 11} "
                         f"search digital")
        engine.relations.postings_index()
        probes, decodes = [], []
        find, columns = BAT.find, PackedPostings.position_columns

        def counted_find(bat, head):
            probes.append(bat.name)
            return find(bat, head)

        def counted_columns(packed):
            decodes.append(packed)
            return columns(packed)

        monkeypatch.setattr(BAT, "find", counted_find)
        monkeypatch.setattr(PackedPostings, "position_columns",
                            counted_columns)
        response = engine.execute(v2('"digital library" OR title:search',
                                     sort=(("url", "asc"),),
                                     facets=("class", "attribute")))
        assert response.total == 2000 and len(response.hits) == 10
        assert dict(response.facets)["class"] == (("Paper", 1334),
                                                  ("Article", 666))
        assert "ir:D" not in probes
        assert len(decodes) == 2  # one phrase node, two words


class TestRangeOverNonDecimalDigits:
    def test_a_superscript_digit_token_does_not_break_ranges(self):
        """'²'.isdigit() is true but float('²') raises: the numeric
        vocabulary keeps only decimal terms, so '١٩٩٧' still counts."""
        engine = IrEngine()
        engine.index("Tournament:t1:year", "final 1999 ²")
        engine.index("Tournament:t2:year", "١٩٩٧")
        engine.index("Tournament:t3:year", "1989")
        service = SearchService(engine)
        try:
            response = service.search(v2("year:1990-2000"))
        finally:
            service.close()
        assert response.total == 2
        assert sorted(hit.key for hit in response.hits) == \
            ["Tournament:t1:year", "Tournament:t2:year"]
