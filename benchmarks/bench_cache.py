"""E9 — the generation-stamped caching layer's two wins.

1. **Warm repeated queries**: a digital library's query stream repeats
   (the same handful of popular searches dominates), so the second
   identical query should cost a result-cache lookup, not a
   distributed plan.  Measured through a ``SearchService`` over a
   4-node ``ClusterIrEngine``: cold (``cache=False``, every round
   executes) vs warm (the cache populated once, every round hits) on a
   200-document corpus; the acceptance bar is a >= 5x median-latency
   win, and the report carries the measured ratio.

2. **Deferred derivation**: population used to refresh the IDF
   relation eagerly (O(vocabulary) per batch of inserts); the
   generation stamp defers every derived structure to the first read.
   Measured as documents/second of pure ``add_document`` population
   with a publish (``refresh_idf``) replayed per insert vs the deferred
   path.

Writes ``BENCH_cache.json`` next to the other ``BENCH_*`` artifacts.
"""

import json
import statistics
import time
from pathlib import Path

from repro.core.config import ExecutionPolicy
from repro.ir.engine import ClusterIrEngine, IrEngine
from repro.service import SearchRequest, SearchService
from repro.service.api import MODE_CONTENT

from benchmarks.conftest import zipf_corpus

DOCUMENTS = 200
CLUSTER_SIZE = 4
QUERIES = ["grandslam finalist", "term000 term001 grandslam",
           "finalist term004", "term002 grandslam finalist term010"]
ROUNDS = 25
REPORT = Path(__file__).parent / "BENCH_cache.json"


def _search(service, query, policy):
    return service.search(SearchRequest(query=query, mode=MODE_CONTENT,
                                        policy=policy))


def _median_query_ms(service, policy, rounds=ROUNDS):
    samples = []
    for round_number in range(rounds):
        query = QUERIES[round_number % len(QUERIES)]
        start = time.perf_counter()
        _search(service, query, policy)
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _population_docs_per_second(docs, eager: bool):
    engine = IrEngine(fragment_count=4)
    start = time.perf_counter()
    for url, text in docs:
        engine.index(url, text)
        if eager:
            # replay the pre-caching behaviour: the old write path
            # derived eagerly while populating
            engine.relations.refresh_idf()
    engine.relations.refresh_idf()  # deferred path pays its one publish
    elapsed = time.perf_counter() - start
    return len(docs) / elapsed


def test_warm_queries_beat_cold_by_5x():
    docs = zipf_corpus(DOCUMENTS, seed=29)
    engine = ClusterIrEngine(CLUSTER_SIZE, fragment_count=4)
    engine.index.add_documents(docs)
    service = SearchService(engine)

    cold = ExecutionPolicy(n=10, cache=False)
    cold_ms = _median_query_ms(service, cold)
    # populate the cache, then measure pure warm rounds
    warm = ExecutionPolicy(n=10)
    for query in QUERIES:
        _search(service, query, warm)
    warm_ms = _median_query_ms(service, warm)
    speedup = cold_ms / warm_ms

    # correctness guard: the warm ranking is bit-identical to cold
    for query in QUERIES:
        cached = _search(service, query, warm)
        uncached = _search(service, query, cold)
        assert cached.cache_hit
        assert cached.hits == uncached.hits

    eager_docs_s = _population_docs_per_second(docs, eager=True)
    deferred_docs_s = _population_docs_per_second(docs, eager=False)

    report = {
        "version": 1,
        "meta": {
            "suite": "bench_cache",
            "documents": DOCUMENTS,
            "cluster_size": CLUSTER_SIZE,
            "rounds": ROUNDS,
            "queries": QUERIES,
        },
        "cold_query_ms": round(cold_ms, 4),
        "warm_query_ms": round(warm_ms, 4),
        "warm_speedup": round(speedup, 2),
        "population": {
            "eager_refresh_docs_per_s": round(eager_docs_s, 1),
            "deferred_refresh_docs_per_s": round(deferred_docs_s, 1),
            "speedup": round(deferred_docs_s / eager_docs_s, 2),
        },
        "cache_stats": service._results.stats(),
    }
    REPORT.write_text(json.dumps(report, indent=2, sort_keys=True))

    assert speedup >= 5.0, (
        f"warm queries only {speedup:.1f}x faster than cold "
        f"(cold={cold_ms:.3f}ms warm={warm_ms:.3f}ms)")
    assert deferred_docs_s > eager_docs_s
