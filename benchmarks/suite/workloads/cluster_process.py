"""``cluster-process``: the shared-nothing plan over two worker processes."""

from __future__ import annotations

import itertools
import time

from repro.core.config import ExecutionPolicy
from repro.ir.distributed import DistributedIndex, patch_fragment_idf
from repro.ir.fragmentation import fragment_by_idf
from repro.ir.topn import topn_fragmented
from repro.monetdb.server import Cluster

from benchmarks.suite import corpus
from benchmarks.suite.measure import QUERY, Measurement
from benchmarks.suite.workloads import (CheckFailed, Workload, median,
                                        prefix_mean, same_ranking)

NODES = 2
PROCESS = ExecutionPolicy(backend="process")
THREAD = ExecutionPolicy(backend="thread")
#: queries replayed on the thread backend and on the nodes' own
#: relations to split a traced run's latency into scan and fan-out
REPLAYED = 200


class ClusterProcess(Workload):
    name = "cluster-process"
    why = ("Distinct 3-term queries fanned out to two worker processes: "
           "per-node scans are tiny, so cluster/remote fan-out, framing "
           "and the central merge do the work.")
    documents = 2000
    min_ops = 400
    spawns_workers = True

    def set_up(self) -> None:
        self.index = DistributedIndex(Cluster(NODES), fragment_count=4)
        self.index.add_documents(corpus.documents(self.documents, self.seed))
        # worker spawn + bootstrap is part of set-up
        replicas = self.index.start_remote(
            replication_factor=1, snapshot_root=self.fresh_dir("snapshots"))
        for node in self.index.nodes:
            for handle in replicas.healthy_replicas(node):
                handle.client = self.recorder.wrap(
                    handle.client, {"call": "remote/call"})
        self._count = itertools.count()
        self.queries = corpus.distinct_bags(self.seed, self.name)
        sample = self._query()
        self.verify(Measurement([[sample]], 0.0))
        if not sample.ok:
            raise CheckFailed("cluster-process: first answer is wrong")

    def warm_up(self) -> None:
        for _ in range(10):
            self._query()

    def _query(self):
        query = next(self.queries)
        sample, result = self.timed(
            QUERY, "cluster/query", f"{self.name}-{next(self._count)}",
            lambda: self.index.query(query, policy=PROCESS))
        if result is not None:
            sample.ok = not result.degraded
            sample.detail.update(
                query=query, ranking=result.ranking,
                tuples=result.total_tuples(),
                max_node_tuples=result.max_node_tuples())
        return sample

    def units(self):
        return [lambda: [self._query()]]

    def verify(self, measurement: Measurement) -> None:
        """Every merged ranking against the central node's own."""
        for sample in measurement.all(QUERY):
            ranking = sample.detail.pop("ranking", None)
            if ranking is not None:
                sample.ok = sample.ok and same_ranking(
                    ranking,
                    self.index.exact_central_ranking(sample.detail["query"]))

    def _slowest_node_ms(self, query: str, fragments: dict) -> float:
        """The dearest node-local scan of one query, timed here on the
        coordinator's own copy of each node's relations."""
        from repro.ir.ranking import query_term_oids

        central = self.index.central
        global_idf = {central.T.find(oid): central.idf(oid)
                      for oid in query_term_oids(central, query)}
        names = list(global_idf)
        slowest = 0.0
        for name, relations in self.index.nodes.items():
            started = time.perf_counter()
            terms = [oid for oid in map(relations.term_oid, names)
                     if oid is not None]
            topn_fragmented(
                patch_fragment_idf(fragments[name], relations,
                                   global_idf),
                terms, PROCESS.n, prune=PROCESS.prune, refine=True)
            slowest = max(slowest,
                          (time.perf_counter() - started) * 1000.0)
        return slowest

    def layer_metrics(self, measurement: Measurement, telemetry,
                      prefix: int, report: dict) -> dict[str, float]:
        samples = [s for s in measurement.all(QUERY) if s.ok]
        replayed = [s.detail["query"] for s in samples[:REPLAYED]]
        thread_ms = []
        for query in replayed:
            started = time.perf_counter()
            self.index.query(query, policy=THREAD)
            thread_ms.append((time.perf_counter() - started) * 1000.0)
        fragments = {
            name: fragment_by_idf(relations, self.index.fragment_count)
            for name, relations in self.index.nodes.items()}
        node_ms = [self._slowest_node_ms(query, fragments)
                   for query in replayed]
        process_ms = median(s.ms for s in samples)
        return {
            "fanout_overhead_ms": process_ms - median(node_ms),
            "thread_backend_ms": median(thread_ms),
            "rpc_ms": process_ms - median(thread_ms),
            "max_node_tuples": prefix_mean(measurement, prefix,
                                           "max_node_tuples"),
            "tuples_per_query": prefix_mean(measurement, prefix, "tuples"),
        }

    def tear_down(self) -> None:
        self.index.stop_remote()
