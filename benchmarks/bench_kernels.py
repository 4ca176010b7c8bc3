"""Batched bulk loading and compiled-plan caching, measured.

1. **Bulk loading.**  The per-pair ``insert`` path validates one atom
   pair per call; ``append_many`` validates whole columns through the
   ADTs' C-speed ``coerce_many`` and extends the packed arrays once.
   The acceptance bar is a ≥ 5× speedup.

2. **Plan caching.**  A repeated query shape must hit the compiled-plan
   cache (``plan_cache.hit > 0``); the cache's book lands in the report
   so the trajectory is diffable across commits.

The scoring kernels themselves have no scalar twin in production to be
timed against: ``tests/kernels/topn_oracle.py`` holds the per-posting
loops as the oracle the parity suites compare them with.

Writes ``BENCH_kernels.json`` next to the other ``BENCH_*`` artifacts.
"""

import json
import statistics
import time
from pathlib import Path

from repro.core.plan_cache import get_plan_cache
from repro.ir.fragmentation import fragment_by_idf
from repro.ir.ranking import query_term_oids
from repro.ir.relations import IrRelations
from repro.ir.topn import topn_fragmented
from repro.monetdb.atoms import Oid
from repro.monetdb.bat import BAT

from benchmarks.conftest import zipf_corpus

DOCUMENTS = 4000
QUERY = "term000 term001 term002 term005 grandslam finalist"
N = 10
FRAGMENTS = 8
BULK_PAIRS = 120_000
REPORT = Path(__file__).parent / "BENCH_kernels.json"


def _median_ms(fn, rounds):
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _bulkload_section():
    heads = [Oid(i) for i in range(BULK_PAIRS)]
    tails = list(range(BULK_PAIRS))

    def per_pair():
        bat = BAT("oid", "int")
        for head, tail in zip(heads, tails):
            bat.insert(head, tail)
        return bat

    def batched():
        bat = BAT("oid", "int")
        bat.append_many(heads, tails)
        return bat

    legacy_ms = _median_ms(per_pair, rounds=3)
    batch_ms = _median_ms(batched, rounds=3)
    assert batched().tail == per_pair().tail
    return {
        "pairs": BULK_PAIRS,
        "per_pair_insert_ms": round(legacy_ms, 3),
        "append_many_ms": round(batch_ms, 3),
        "speedup": round(legacy_ms / batch_ms, 2),
    }


def test_bulkload_and_plan_cache():
    relations = IrRelations()
    relations.add_documents(zipf_corpus(DOCUMENTS, vocabulary=250,
                                        words_per_doc=80, seed=17))
    fragments = fragment_by_idf(relations, FRAGMENTS)
    terms = query_term_oids(relations, QUERY)

    # repeated query shape: the compiled plan must come from the cache
    cache = get_plan_cache()
    topn_fragmented(fragments, terms, N)
    repeat = topn_fragmented(fragments, terms, N)
    assert repeat.details["plan_cache_hit"] is True
    stats = cache.stats()
    assert stats["hits"] > 0, "repeated query shape never hit the cache"

    bulkload = _bulkload_section()

    report = {
        "version": 2,
        "meta": {
            "suite": "bench_kernels",
            "documents": DOCUMENTS,
            "fragments": FRAGMENTS,
            "n": N,
            "query": QUERY,
        },
        "bulkload": bulkload,
        "plan_cache": {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "entries": stats["entries"],
            "hit_on_repeated_shape": repeat.details["plan_cache_hit"],
        },
    }
    REPORT.write_text(json.dumps(report, indent=2, sort_keys=True))

    assert bulkload["speedup"] >= 5.0, (
        f"batched bulkload only {bulkload['speedup']}x over per-pair "
        f"inserts (bar: 5x)")
