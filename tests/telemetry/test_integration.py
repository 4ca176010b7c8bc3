"""End-to-end telemetry over the three-level stack.

The headline check of the subsystem: a distributed top-N query's
per-node registry counters must agree exactly with the hand-carried
accounting of :class:`DistributedQueryResult`, and an integrated
engine query must produce the query → plan stage → operator span tree.
"""

import pytest

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.core.translate import ConceptualIndex
from repro.ir.distributed import DistributedIndex
from repro.monetdb.server import Cluster
from repro.telemetry import telemetry_session
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema


def corpus(documents: int = 40):
    words = ["alpha", "beta", "gamma", "delta", "grandslam", "finalist"]
    docs = []
    for d in range(documents):
        body = " ".join(words[i % len(words)]
                        for i in range(d % 7 + 3))
        if d % 10 == 0:
            body += " champion" * (d // 10 + 1)
        docs.append((f"http://x/d{d:03d}", body))
    return docs


class TestDistributedAccounting:
    def test_per_node_counters_match_result_accounting(self):
        with telemetry_session() as telemetry:
            cluster = Cluster(3)
            index = DistributedIndex(cluster, fragment_count=4)
            index.add_documents(corpus())
            telemetry.reset()  # only the query should be on the books
            result = index.query("champion alpha",
                                 policy=ExecutionPolicy(n=5))

            per_node = result.tuples_read_per_node()
            snapshot = telemetry.metrics.snapshot()["counters"]
            for server in cluster:
                assert snapshot[
                    f"ir.node_tuples_read{{node={server.name}}}"] \
                    == per_node[server.name]
                assert snapshot[
                    f"monetdb.tuples_touched{{server={server.name}}}"] \
                    == per_node[server.name]
            assert telemetry.metrics.sum_counters("ir.node_tuples_read") \
                == result.total_tuples()

    def test_distributed_query_span_structure(self):
        with telemetry_session() as telemetry:
            cluster = Cluster(2)
            index = DistributedIndex(cluster, fragment_count=4)
            index.add_documents(corpus())
            telemetry.reset()
            index.query("champion", policy=ExecutionPolicy(n=5))

            roots = telemetry.tracer.roots
            assert [root.name for root in roots] == ["ir.distributed_query"]
            root = roots[0]
            assert len(root.find_all("ir.node_topn")) == 2
            assert len(root.find_all("ir.merge")) == 1
            # distributed_query -> node_topn -> topn: three levels
            assert root.depth() >= 3

    def test_merged_ranking_unchanged_by_instrumentation(self):
        cluster = Cluster(2)
        index = DistributedIndex(cluster, fragment_count=4)
        index.add_documents(corpus())
        plain = index.query("champion alpha",
                            policy=ExecutionPolicy(n=5))
        with telemetry_session():
            traced = index.query("champion alpha",
                                 policy=ExecutionPolicy(n=5))
        assert traced.ranking == plain.ranking
        assert traced.tuples_read_per_node() == plain.tuples_read_per_node()


@pytest.fixture(scope="module")
def clustered_engine():
    server, _ = build_ausopen_site(players=8, articles=4, videos=2,
                                   frames_per_shot=6)
    engine = SearchEngine(australian_open_schema(), server,
                          EngineConfig(cluster_size=3, fragment_count=4))
    engine.populate()
    return engine


class TestEngineSpans:
    def test_query_span_tree_nests_three_levels(self, clustered_engine):
        with telemetry_session() as telemetry:
            clustered_engine.query_text(
                "SELECT p.name FROM Player p WHERE p.plays = 'left' "
                "AND p.history CONTAINS 'Winner' TOP 5")
            roots = [root for root in telemetry.tracer.roots
                     if root.name == "query"]
            assert len(roots) == 1
            root = roots[0]
            # query -> plan stage -> operator (and deeper into the IR plan)
            assert root.depth() >= 3
            stages = {child.name for child in root.children}
            assert {"plan.bind", "plan.select", "plan.content",
                    "plan.join", "plan.rank"} <= stages
            content = root.find_all("plan.content")[0]
            probe = content.find_all("op.IrProbe")[0]
            assert probe.find_all("ir.distributed_query")

    def test_engine_counters_cover_all_levels(self, clustered_engine):
        # conceptual lookups are memoized across queries; start cold so
        # the query charges the conceptual server
        clustered_engine._index = ConceptualIndex(
            clustered_engine.conceptual_store)
        with telemetry_session() as telemetry:
            clustered_engine.query_text(
                "SELECT p.name FROM Player p "
                "WHERE p.history CONTAINS 'Winner' TOP 5")
            snapshot = telemetry.metrics.snapshot()["counters"]
            assert snapshot["engine.queries"] == 1
            assert snapshot["translate.operators{operator=IrProbe}"] == 1
            conceptual = snapshot["monetdb.tuples_touched{server=conceptual}"]
            assert conceptual > 0

    def test_node_tuples_sum_matches_last_distributed_result(
            self, clustered_engine):
        with telemetry_session() as telemetry:
            # cache=False: the assertion compares this run's counters to
            # this run's per-node accounting, so the query must execute
            clustered_engine.query_text(
                "SELECT p.name FROM Player p "
                "WHERE p.history CONTAINS 'Winner' TOP 5",
                policy=ExecutionPolicy(cache=False))
            last = clustered_engine.ir.last_result
            assert last is not None
            assert telemetry.metrics.sum_counters("ir.node_tuples_read") \
                == last.total_tuples()

    def test_results_identical_with_and_without_telemetry(
            self, clustered_engine):
        source = ("SELECT p.name FROM Player p WHERE p.plays = 'left' "
                  "AND p.history CONTAINS 'Winner' TOP 5")
        clustered_engine.query_text(source)  # warm the conceptual caches
        plain = clustered_engine.query_text(source)
        with telemetry_session():
            traced = clustered_engine.query_text(source)
        assert [row.keys for row in traced.rows] \
            == [row.keys for row in plain.rows]
        assert traced.tuples_touched == plain.tuples_touched
