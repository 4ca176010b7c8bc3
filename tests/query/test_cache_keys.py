"""Cache-key discipline: structured shapes never share entries.

The service's result cache keys on the full request shape — the same
term list under different fields, boosts, filters, sort or pagination
must never serve one another's entries.
"""

import pytest

from repro.core.config import ExecutionPolicy
from repro.ir.engine import IrEngine
from repro.service import SearchService
from repro.service.api import MODE_CONTENT, SearchRequest

from tests.query.conftest import ARTICLES, PAPERS, PLAIN_DOCS

pytestmark = pytest.mark.query


@pytest.fixture
def service():
    engine = IrEngine(fragment_count=4)
    for key, title, abstract, year in PAPERS:
        engine.index(f"Paper:{key}:title", title)
        engine.index(f"Paper:{key}:abstract", abstract)
        engine.index(f"Paper:{key}:year", year)
    for key, title in ARTICLES:
        engine.index(f"Article:{key}:title", title)
    for url, text in PLAIN_DOCS:
        engine.index(url, text)
    return SearchService(engine)


def v2(query, **kwargs):
    return SearchRequest(query=query, mode=MODE_CONTENT,
                         schema_version=2, **kwargs)


class TestResultCacheKeys:
    def test_same_terms_different_fields_never_collide(self, service):
        everywhere = service.search(v2("library"))
        fielded = service.search(v2("title:library"))
        assert len(fielded.hits) < len(everywhere.hits)
        # warm repeats serve each their own entry
        assert service.search(v2("library")).cache_hit
        assert service.search(v2("title:library")).cache_hit
        assert len(service.search(v2("title:library")).hits) \
            == len(fielded.hits)

    def test_same_text_different_boosts_never_collide(self, service):
        plain = service.search(v2("digital library"))
        boosted = service.search(v2("digital library",
                                    boosts=(("title", 100.0),)))
        assert [(h.key, h.score) for h in plain.hits] \
            != [(h.key, h.score) for h in boosted.hits]
        warm = service.search(v2("digital library",
                                 boosts=(("title", 100.0),)))
        assert warm.cache_hit
        assert [(h.key, h.score) for h in warm.hits] \
            == [(h.key, h.score) for h in boosted.hits]

    def test_filters_and_pagination_never_collide(self, service):
        everything = service.search(v2("1999 OR 1989"))
        filtered = service.search(v2("1999 OR 1989",
                                     filters=(("year", "1990-"),)))
        assert len(filtered.hits) < len(everything.hits)
        page1 = service.search(v2("digital library", limit=2))
        page2 = service.search(v2("digital library", limit=2, offset=2))
        assert [h.key for h in page1.hits] != [h.key for h in page2.hits]
        assert service.search(v2("digital library", limit=2)).cache_hit
        assert service.search(
            v2("digital library", limit=2, offset=2)).cache_hit

    def test_sort_never_collides_with_score_order(self, service):
        ranked = service.search(v2("digital library"))
        by_url = service.search(v2("digital library",
                                   sort=(("url", "asc"),)))
        urls = [h.key for h in by_url.hits]
        assert urls == sorted(urls)
        assert [h.key for h in ranked.hits] != urls
        assert service.search(
            v2("digital library", sort=(("url", "asc"),))).cache_hit

    def test_v1_and_v2_of_the_same_text_never_collide(self, service):
        text = "digital library"
        cold_v1 = service.search(SearchRequest(query=text,
                                               mode=MODE_CONTENT))
        assert not cold_v1.cache_hit
        cold_v2 = service.search(v2(text, facets=("class",)))
        assert not cold_v2.cache_hit
        assert service.search(SearchRequest(query=text,
                                            mode=MODE_CONTENT)).cache_hit
        assert service.search(v2(text, facets=("class",))).cache_hit


class TestExecutionPolicyStillKeys:
    def test_different_n_still_misses(self, service):
        wide = ExecutionPolicy(n=50)
        a = service.search(v2("digital library", limit=2))
        b = service.search(SearchRequest(query="digital library",
                                         mode=MODE_CONTENT,
                                         schema_version=2, limit=2,
                                         policy=wide))
        # both executed cold: policy.n is still part of the key
        assert not a.cache_hit and not b.cache_hit
