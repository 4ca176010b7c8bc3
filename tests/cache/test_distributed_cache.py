"""The result cache over the cluster: per-node generations, degraded
results, thread safety under the fan-out engine."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster import ExecutionPolicy, FaultInjector
from repro.ir.engine import ClusterIrEngine
from repro.service import SearchRequest, SearchService
from repro.service.api import MODE_CONTENT
from repro.telemetry import telemetry_session

from tests.cluster.conftest import build_index, corpus

pytestmark = pytest.mark.cache

QUERY = "trophy melbourne w0 w1"


def build_service(cluster_size=4, documents=60, fault_injector=None):
    engine = ClusterIrEngine(cluster_size, fragment_count=4,
                             fault_injector=fault_injector)
    engine.index.add_documents(corpus(documents))
    return SearchService(engine), engine.index


def query(service, text, policy=None):
    return service.search(SearchRequest(
        query=text, mode=MODE_CONTENT,
        policy=policy if policy is not None else ExecutionPolicy(n=5)))


def ranking(response):
    return [(hit.key, hit.score) for hit in response.hits]


class TestHitAfterWarm:
    def test_second_query_is_a_cache_hit(self):
        service, _ = build_service(cluster_size=3)
        cold = query(service, QUERY)
        assert not cold.cache_hit
        warm = query(service, QUERY)
        assert warm.cache_hit
        assert ranking(warm) == ranking(cold)
        assert warm.result.tuples_read_per_node() \
            == cold.result.tuples_read_per_node()

    def test_cache_hit_surfaces_on_dict_and_explain(self):
        service, _ = build_service(cluster_size=2)
        cold = query(service, QUERY)
        warm = query(service, QUERY)
        assert warm.to_dict()["cache_hit"] is True
        # the stored plan is the original execution's, node for node
        assert warm.result.explain() == cold.result.explain()

    def test_cached_ranking_is_bit_identical_to_uncached(self):
        service, _ = build_service(cluster_size=3)
        uncached = query(service, QUERY, ExecutionPolicy(n=10, cache=False))
        query(service, QUERY, ExecutionPolicy(n=10))
        cached = query(service, QUERY, ExecutionPolicy(n=10))
        assert cached.cache_hit
        assert ranking(cached) == ranking(uncached)
        assert cached.tuples_touched == uncached.tuples_touched

    def test_policy_knobs_partition_the_cache(self):
        service, _ = build_service(cluster_size=2)
        query(service, QUERY)
        pruned_off = query(service, QUERY, ExecutionPolicy(n=5, prune=False))
        assert not pruned_off.cache_hit


class TestInvalidation:
    def test_add_documents_invalidates(self):
        service, _ = build_service(cluster_size=3, documents=40)
        query(service, QUERY)
        service.add_documents([("http://site/extra0", "trophy melbourne"),
                               ("http://site/extra1", "trophy trophy")])
        after = query(service, QUERY)
        assert not after.cache_hit

    def test_add_document_invalidates(self):
        # a write straight into the index, past the service
        service, index = build_service(cluster_size=2, documents=30)
        before = query(service, "trophy")
        index.add_document("http://site/solo", "trophy " * 10)
        after = query(service, "trophy")
        assert not after.cache_hit
        assert "http://site/solo" in [hit.key for hit in after.hits]
        assert ranking(before) != ranking(after)

    def test_remove_document_invalidates(self):
        service, _ = build_service(cluster_size=2, documents=30)
        result = query(service, "trophy")
        top_url = result.hits[0].key
        service.remove(top_url)
        after = query(service, "trophy")
        assert not after.cache_hit
        assert top_url not in [hit.key for hit in after.hits]

    def test_refresh_rebuilds_only_stale_nodes(self):
        index = build_index(cluster_size=4)
        with telemetry_session() as telemetry:
            index.refresh()  # nothing changed: all nodes fresh
            assert telemetry.metrics.sum_counters("ir.fragment_rebuilds") \
                == 0
            index.add_document("http://site/one-more", "trophy melbourne")
            index.refresh()  # exactly one node took the document
            assert telemetry.metrics.sum_counters("ir.fragment_rebuilds") \
                == 1


class TestDegradedNeverCached:
    def test_degraded_result_is_not_stored(self):
        faults = FaultInjector().fail("node1", times=1)
        service, _ = build_service(cluster_size=3, fault_injector=faults)
        policy = ExecutionPolicy(n=5, on_failure="degrade")
        degraded = query(service, QUERY, policy)
        assert degraded.degraded
        # the fault budget is spent: this run executes cleanly — it must
        # NOT be a hit on the degraded entry
        healed = query(service, QUERY, policy)
        assert not healed.cache_hit
        assert not healed.degraded
        # and only now does the clean result populate the cache
        warm = query(service, QUERY, policy)
        assert warm.cache_hit
        assert ranking(warm) == ranking(healed)


class TestThreadSafety:
    def test_racing_queries_agree_with_sequential(self):
        service, _ = build_service(cluster_size=4, documents=60)
        policy = ExecutionPolicy(n=10, max_workers=4)
        reference = query(service, QUERY,
                          ExecutionPolicy(n=10, max_workers=4, cache=False))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: query(service, QUERY, policy), range(16)))
        for result in results:
            assert ranking(result) == ranking(reference)
        # a racing request either led a flight (one lookup, then maybe
        # an execution) or coalesced onto one; every store is idempotent
        stats = service._results.stats()
        coalesced = service.status()["counters"]["coalesced"]
        assert stats["entries"] == 1
        assert 1 <= stats["misses"]
        assert stats["hits"] + stats["misses"] + coalesced == 16
        assert service.drain(5.0)

    def test_racing_mixed_queries_stay_consistent(self):
        service, _ = build_service(cluster_size=3, documents=50)
        queries = [QUERY, "trophy", "melbourne w2", "w0 w3 w5"]
        expected = {
            text: ranking(query(service, text,
                                ExecutionPolicy(n=5, cache=False)))
            for text in queries}
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda i: (queries[i % 4], query(service, queries[i % 4])),
                range(24)))
        for text, result in results:
            assert ranking(result) == expected[text]
        assert service.drain(5.0)


class TestCentralIdfLaziness:
    def test_population_then_query_lays_out_nodes(self):
        from repro.ir.distributed import DistributedIndex
        from repro.monetdb.server import Cluster

        with telemetry_session() as telemetry:
            index = DistributedIndex(Cluster(3), fragment_count=4)
            index.add_documents(corpus(documents=30))
            # one layout per node, exactly once each
            assert telemetry.metrics.sum_counters(
                "ir.fragment_rebuilds") == 3
            index.query(QUERY, policy=ExecutionPolicy(n=5))
            assert telemetry.metrics.sum_counters(
                "ir.fragment_rebuilds") == 3
        # the central copy's idf is read off its df map: no publish
        assert index.central._postings_index is None
