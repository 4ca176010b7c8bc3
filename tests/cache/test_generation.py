"""Generation stamping: the write path's entire invalidation protocol.

A write bumps the generation and maintains the document frequencies,
nothing more: ``idf`` reads ``1/df`` off the df map with no refresh,
and a generation's derived state — its packed postings and its fragment
layout — is made once, on the postings index the generation's first
read publishes.  The headline regression is the old double refresh of
``search_fragmented`` (one eager refresh in the engine plus one inside
the fragment build) and the old eager per-insert refresh of
``add_document``: one derivation per generation read, however the
query comes in, asserted through the ``ir.fragment_rebuilds`` counter.
"""

import random

import pytest

from repro.core.config import ExecutionPolicy
from repro.ir.engine import ClusterIrEngine, IrEngine
from repro.ir.relations import IrRelations
from repro.ir.text import analyze
from repro.monetdb.persistence import load_catalog
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2, SearchRequest)
from repro.telemetry import telemetry_session

from tests.cache.conftest import corpus

pytestmark = pytest.mark.cache


class TestRelationsGeneration:
    def test_mutations_bump_the_generation(self):
        relations = IrRelations()
        start = relations.generation
        relations.add_document("doc:a", "alpha beta")
        assert relations.generation == start + 1
        relations.add_document("doc:b", "beta gamma")
        assert relations.generation == start + 2
        relations.remove_document("doc:a")
        assert relations.generation == start + 3

    def test_population_defers_idf_work(self):
        relations = IrRelations()
        for url, text in corpus(documents=20):
            relations.add_document(url, text)
        assert relations._postings_index is None  # a write derives nothing
        relations.refresh_idf()
        index = relations._postings_index
        assert index.generation == relations.generation
        assert len(index.df) == relations.vocabulary_size()

    def test_refresh_is_memoized_per_generation(self):
        relations = IrRelations()
        relations.add_document("doc:a", "alpha beta")
        relations.refresh_idf()
        index = relations._postings_index
        relations.refresh_idf()
        relations.refresh_idf()
        assert relations._postings_index is index
        relations.add_document("doc:b", "beta")
        relations.refresh_idf()
        assert relations._postings_index is not index
        assert relations._postings_index.generation == relations.generation

    def test_an_idf_read_publishes_nothing(self):
        relations = IrRelations()
        relations.add_document("doc:a", "alpha beta")
        relations.add_document("doc:b", "beta")
        beta = relations.term_oid("beta")
        assert relations.idf(beta) == 0.5
        assert relations.idf(beta) == 0.5
        assert relations._postings_index is None


def _assert_idf_is_one_over_df(relations: IrRelations,
                               texts: dict[str, str]) -> None:
    """Every term's idf is ``1/df`` of the documents held (0.0 for a
    term no document holds), the dfs counted from the texts."""
    df: dict[str, int] = {}
    for text in texts.values():
        for term in set(analyze(text)):
            df[term] = df.get(term, 0) + 1
    for term, oid in relations._term_oids.items():
        assert relations.idf(oid) == (1.0 / df[term] if term in df
                                      else 0.0)


def _assert_idf_is_stored(relations: IrRelations, path) -> IrRelations:
    """Save, then check the stored ``ir:IDF`` against ``idf`` on both
    sides of a load; the loaded relations."""
    relations.save(path)
    stored = load_catalog(path)[0].get("ir:IDF")
    loaded = IrRelations.load(path, relations.generation)
    assert dict(zip(stored.head, stored.tail)) == {
        oid: relations.idf(oid) for oid in relations._df}
    assert all(loaded.idf(oid) == weight
               for oid, weight in zip(stored.head, stored.tail))
    return loaded


class TestIdfNeedsNoRefresh:
    def test_idf_is_one_over_df_after_every_write(self, tmp_path):
        rng = random.Random(46)
        documents = corpus(documents=16)
        relations = IrRelations()
        texts: dict[str, str] = {}
        for step in range(90):
            url = rng.choice(documents)[0]
            op = rng.choice(("add", "reindex", "remove"))
            if op == "remove":
                if url in texts:
                    relations.remove_document(url)
                    del texts[url]
            else:
                if url in texts:
                    relations.remove_document(url)
                texts[url] = rng.choice(documents)[1]
                relations.add_document(url, texts[url])
            _assert_idf_is_one_over_df(relations, texts)
            if step % 30 == 29:  # the next removes hit a loaded base
                assert relations._postings_index is None  # never read
                relations = _assert_idf_is_stored(
                    relations, tmp_path / f"ir{step}.bats")
                _assert_idf_is_one_over_df(relations, texts)


class TestOneDerivationPerGeneration:
    def test_every_read_path_shares_one_layout_per_relations(self):
        engine = IrEngine(fragment_count=4)
        cluster = ClusterIrEngine(2, fragment_count=4)
        for url, text in corpus(documents=30):
            engine.index(url, text)
            cluster.index.add_document(url, text)
        nodes = list(cluster.index.nodes.values())
        requests = [SearchRequest(query="trophy champion w1", mode=mode)
                    for mode in (MODE_CONTENT, MODE_FRAGMENTED)]
        requests += [SearchRequest(query="trophy OR w2", mode=mode,
                                   schema_version=SCHEMA_VERSION_V2)
                     for mode in (MODE_CONTENT, MODE_FRAGMENTED)]

        def read_everything():
            for request in requests:
                engine.execute(request)
            cluster.search_urls("trophy champion w1")

        with telemetry_session() as telemetry:
            read_everything()
            # the engine's relations and each node's: one layout each
            assert telemetry.metrics.sum_counters(
                "ir.fragment_rebuilds") == 1 + len(nodes)
            read_everything()
            assert telemetry.metrics.sum_counters(
                "ir.fragment_rebuilds") == 1 + len(nodes)
        for relations in [engine.relations] + nodes:
            assert list(relations.postings_index()._layouts) == [4]
        assert engine.fragments() is \
            engine.relations.postings_index().fragments(4)


class TestSingleRefreshRegression:
    """A generation's refresh is its one derivation: the publish and the
    layout on the published index."""

    def test_search_fragmented_refreshes_idf_exactly_once(self, engine):
        # regression: search_fragmented used to refresh IDF eagerly AND
        # again inside the fragment build — one index mutation must cost
        # exactly one derivation, however the query comes in
        with telemetry_session() as telemetry:
            engine.search_fragmented("trophy champion", policy=ExecutionPolicy(n=5))
            index = engine.relations._postings_index
            assert index.generation == engine.generation
            assert telemetry.metrics.sum_counters("ir.fragment_rebuilds") \
                == 1
            engine.search_fragmented("trophy", policy=ExecutionPolicy(n=5))
            assert engine.relations._postings_index is index

    def test_repeated_queries_never_refresh_again(self, engine):
        with telemetry_session() as telemetry:
            # distinct queries so the query cache cannot short-circuit
            engine.search_fragmented("trophy", policy=ExecutionPolicy(n=5))
            engine.search_fragmented("champion", policy=ExecutionPolicy(n=5))
            engine.search("trophy w0", policy=ExecutionPolicy(n=5))
            engine.search("w1 w2", policy=ExecutionPolicy(n=5))
            assert telemetry.metrics.sum_counters("ir.fragment_rebuilds") \
                == 1

    def test_mutation_triggers_one_more_refresh(self, engine):
        with telemetry_session() as telemetry:
            engine.search_fragmented("trophy", policy=ExecutionPolicy(n=5))
            engine.index("doc:new", "trophy trophy champion")
            engine.search_fragmented("champion", policy=ExecutionPolicy(n=5))
            assert telemetry.metrics.sum_counters("ir.fragment_rebuilds") \
                == 2


class TestFragmentMemoization:
    def test_fragments_reused_until_mutation(self, engine):
        first = engine.fragments()
        assert engine.fragments() is first
        engine.index("doc:new", "something else entirely")
        rebuilt = engine.fragments()
        assert rebuilt is not first
        # the layout the generation's postings index memoizes
        assert rebuilt is engine.relations.postings_index().fragments(
            engine.fragment_count)

    def test_direct_relations_mutation_is_seen(self, engine):
        # mutations bypassing the engine facade still stamp the
        # generation, so the memoized fragment set goes stale too
        first = engine.fragments()
        engine.relations.add_document("doc:direct", "trophy")
        assert engine.fragments() is not first


class TestEngineGenerationSurface:
    def test_engine_exposes_relations_generation(self, engine):
        before = engine.generation
        engine.index("doc:new", "alpha")
        assert engine.generation == before + 1
        engine.reindex("doc:new", "alpha beta")
        # reindex of an existing document = remove + add
        assert engine.generation == before + 3

    def test_stats_report_the_generation(self, engine):
        assert engine.relations.stats()["generation"] \
            == engine.relations.generation

    def test_search_results_unchanged_by_laziness(self, engine):
        # deferred refresh must not change what queries return
        lazy = engine.search("trophy champion",
                             policy=ExecutionPolicy(n=10, cache=False))
        engine.relations.refresh_idf()
        eager = engine.search("trophy champion",
                              policy=ExecutionPolicy(n=10, cache=False))
        assert lazy == eager
