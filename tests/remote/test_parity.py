"""Thread backend vs. process backend: rankings must be bit-identical.

The workers score the same postings against the same pushed global idf
weights and tie-break in the same insertion order as the coordinator's
local node relations, and both backends merge through ``topn_merge`` on
central oids — so not just the urls but the exact score doubles must
agree (JSON round-trips floats losslessly).
"""

import pytest

from tests.remote.conftest import process_policy

pytestmark = pytest.mark.remote

QUERIES = ["trophy melbourne", "w0 w3", "w10 w2 w5", "w1", "w7 w0 trophy",
           "w0 w0 trophy"]


def thread_policy(**overrides):
    return process_policy(backend="thread", **overrides)


class TestBitIdenticalRankings:
    def test_rankings_identical_across_backends(self, replicated_index):
        for query in QUERIES:
            thread = replicated_index.query(query, thread_policy())
            process = replicated_index.query(query, process_policy())
            assert process.ranking == thread.ranking, query
            assert not process.degraded
            assert not process.failed_nodes

    def test_accounting_matches(self, replicated_index):
        # both backends run the one node task (ir.distributed.node_topn),
        # so every node's work accounting matches, not just the totals
        for query in QUERIES:
            thread = replicated_index.query(query, thread_policy())
            process = replicated_index.query(query, process_policy())
            assert process.total_tuples() == thread.total_tuples()
            assert process.tuples_read_per_node() \
                == thread.tuples_read_per_node(), query
            for name, local in thread.local_results.items():
                remote = process.local_results[name]
                assert remote.fragments_read == local.fragments_read
                assert remote.stopped_early == local.stopped_early

    def test_pruning_disabled_also_identical(self, replicated_index):
        thread = replicated_index.query(
            "trophy melbourne w0", thread_policy(prune=False))
        process = replicated_index.query(
            "trophy melbourne w0", process_policy(prune=False))
        assert process.ranking == thread.ranking

    def test_parity_survives_writes(self, replicated_index):
        """Dual-write keeps replicas in lockstep with the local copies."""
        replicated_index.add_document(
            "http://site/new", "trophy trophy melbourne w0 w1")
        replicated_index.add_documents(
            [(f"http://site/bulk{i}", f"w0 w1 trophy w{i}")
             for i in range(5)])
        replicated_index.remove_document("http://site/p0")
        replicated_index.refresh()
        for query in QUERIES:
            thread = replicated_index.query(query, thread_policy())
            process = replicated_index.query(query, process_policy())
            assert process.ranking == thread.ranking, query

    def test_replica_generations_track_local(self, replicated_index):
        replicated_index.add_document("http://site/gen", "w0 trophy")
        status = replicated_index.remote.status()
        for node, handles in status["nodes"].items():
            expected = replicated_index.nodes[node].generation
            for handle in handles:
                assert handle["healthy"]
                assert handle["generation"] == expected, handle["name"]
