"""Worker lifecycle and RPC semantics against live subprocesses."""

import socket

import pytest

from repro.errors import RemoteError, RemoteTransportError
from repro.ir.relations import IrRelations
from repro.persistence import Manifest, verify_files
from repro.remote.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.remote.replicas import ReplicaSet

from tests.remote.conftest import corpus

pytestmark = pytest.mark.remote


@pytest.fixture
def worker():
    """One spawned worker (replication_factor=1 around one node)."""
    replicas = ReplicaSet({"node0": IrRelations()}, replication_factor=1)
    replicas.start()
    try:
        yield replicas.replicas["node0"][0]
    finally:
        replicas.stop()


class TestLifecycle:
    def test_spawn_ping_shutdown(self, worker):
        info = worker.client.ping()
        assert info["name"] == "node0/r0"
        assert info["pid"] == worker.process.pid

    def test_status_reports_empty_index(self, worker):
        status = worker.client.call("status")
        assert status["documents"] == 0
        assert status["generation"] == 0

    def test_unknown_op_is_application_error(self, worker):
        with pytest.raises(RemoteError, match="unknown worker op"):
            worker.client.call("frobnicate")
        # the worker survives an unknown op
        assert worker.client.ping()["pid"] == worker.process.pid

    def test_unsupported_protocol_version_rejected(self, worker):
        with socket.create_connection(
                (worker.client.host, worker.client.port), timeout=5) as sock:
            send_frame(sock, {"v": PROTOCOL_VERSION + 1, "op": "ping"})
            reply = recv_frame(sock)
        assert reply["ok"] is False
        assert "version" in reply["error"]

    def test_malformed_frame_drops_connection_not_worker(self, worker):
        with socket.create_connection(
                (worker.client.host, worker.client.port), timeout=5) as sock:
            sock.sendall(b"\xff\xff\xff\xff garbage")
        # that connection died; the worker still serves fresh ones
        assert worker.client.ping()["pid"] == worker.process.pid

    def test_killed_worker_is_transport_error(self, worker):
        worker.process.kill()
        worker.process.wait(timeout=5)
        with pytest.raises(RemoteTransportError):
            worker.client.ping(deadline_s=2.0)


class TestIndexOps:
    def test_add_search_remove_roundtrip(self, worker):
        docs = corpus(documents=12)
        reply = worker.client.call("add_documents",
                                   {"documents": [list(d) for d in docs]})
        assert reply["count"] == 12
        assert reply["generation"] == 12

        local = IrRelations()
        for url, text in docs:
            local.add_document(url, text)
        # push the *analyzed* (stemmed) term names, as the coordinator does
        from repro.ir.text import analyze
        terms = list(analyze("trophy melbourne"))
        idf = {term: local.idf(local.term_oid(term)) for term in terms}

        from repro.core.config import ExecutionPolicy
        from repro.service.api import SearchRequest

        request = SearchRequest(
            query="trophy melbourne", mode="fragmented",
            policy=ExecutionPolicy(n=5, cache=False)).to_dict()
        result = worker.client.call(
            "search", {"request": request, "terms": terms, "idf": idf})
        assert result["rows"] > 0
        assert result["accounting"]["generation"] == 12

        # remote hits must equal a local single-node execution exactly
        from repro.ir.fragmentation import fragment_by_idf
        from repro.ir.topn import topn_fragmented
        from repro.ir.distributed import patch_fragment_idf

        fragments = patch_fragment_idf(fragment_by_idf(local, 4), local, idf)
        term_oids = [local.term_oid(t) for t in terms]
        expected = topn_fragmented(fragments, term_oids, 5, prune=True,
                                   refine=True)
        assert [(hit["key"], hit["score"]) for hit in result["hits"]] \
            == [(local.doc_url(doc), score)
                for doc, score in expected.ranking]

        removed = worker.client.call("remove_document",
                                     {"url": docs[0][0]})
        assert removed["generation"] == 13
        assert worker.client.call("status")["documents"] == 11

    def test_duplicate_add_is_application_error(self, worker):
        worker.client.call("add_documents",
                           {"documents": [["http://site/x", "alpha"]]})
        with pytest.raises(RemoteError, match="already indexed") as info:
            worker.client.call("add_documents",
                               {"documents": [["http://site/x", "alpha"]]})
        assert info.value.kind == "CatalogError"


class TestCheckpointBootstrap:
    def test_checkpoint_then_bootstrap_transfers_state(self, tmp_path,
                                                       worker):
        docs = corpus(documents=10)
        worker.client.call("add_documents",
                           {"documents": [list(d) for d in docs]})
        path = tmp_path / "ckpt"
        saved = worker.client.call("checkpoint",
                                   {"path": str(path), "seq": 4})
        assert saved["generation"] == 10
        # a node object: the IR part plus a manifest stamping it
        manifest = Manifest.load(path, "node")
        assert (manifest.generation, manifest.seq) == (10, 4)
        verify_files(path, manifest)

        other = ReplicaSet({"node0": IrRelations()}, replication_factor=1)
        other.start()
        try:
            fresh = other.replicas["node0"][0]
            # the generation comes from the object's manifest
            restored = fresh.client.call("bootstrap", {"path": str(path)})
            assert restored == {"documents": 10, "generation": 10}
            status = fresh.client.call("status")
            assert status["documents"] == 10
            assert status["generation"] == 10
        finally:
            other.stop()
