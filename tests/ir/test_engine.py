"""IrEngine facade behaviour."""

import pytest

from repro.core.config import ExecutionPolicy
from repro.ir.engine import IrEngine


@pytest.fixture
def engine() -> IrEngine:
    engine = IrEngine(fragment_count=4)
    engine.index("doc:u1", "champion tennis serve")
    engine.index("doc:u2", "tennis court surface")
    engine.index("doc:u3", "football goal keeper")
    return engine


class TestLifecycle:
    def test_search_urls(self, engine):
        urls = [url for url, _ in engine.search_urls("champion")]
        assert urls == ["doc:u1"]

    def test_remove_unindexes(self, engine):
        engine.remove("doc:u1")
        assert engine.search_urls("champion") == []

    def test_reindex_replaces_content(self, engine):
        engine.reindex("doc:u3", "champion of football")
        urls = [url for url, _ in engine.search_urls("champion")]
        assert set(urls) == {"doc:u1", "doc:u3"}

    def test_reindex_of_new_url_indexes(self, engine):
        engine.reindex("doc:u4", "brand new champion")
        assert "doc:u4" in [url for url, _ in engine.search_urls("champion")]

    def test_unknown_model_rejected(self):
        # tf·idf is the one ranking model: there is no model to choose
        with pytest.raises(TypeError):
            IrEngine(model="bm25")


class TestFragmentsCache:
    def test_fragments_rebuilt_after_updates(self, engine):
        first = engine.fragments()
        engine.index("doc:u9", "fresh words entirely")
        second = engine.fragments()
        assert second is not first
        assert second.total_tuples() > first.total_tuples()

    def test_search_fragmented_matches_search(self, engine):
        exact = engine.search("tennis champion",
                              policy=ExecutionPolicy(n=3))
        fragmented = engine.search_fragmented("tennis champion",
                                              policy=ExecutionPolicy(n=3))
        assert [doc for doc, _ in fragmented.ranking] \
            == [doc for doc, _ in exact]
