"""One shared-nothing node as its own process: the :class:`NodeWorker`.

The paper distributes TF fragments over "several database servers";
this module is one such server.  A worker owns a private
:class:`~repro.ir.relations.IrRelations` (its slice of the document
collection), reads its idf-ordered fragment set off the postings index
each generation publishes, and answers a small JSON RPC over the framing of
:mod:`repro.remote.protocol`:

======================  ====================================================
op                      effect
======================  ====================================================
``ping``                liveness probe (name, pid)
``status``              document count, generation, collection length
``add_documents``       index ``[url, text]`` pairs (write-locked)
``remove_document``     un-index one url
``refresh``             publish the generation and lay out its fragments
``search``              local top-N for a pushed term list + global idf —
                        request/reply reuse the frozen
                        :class:`~repro.service.api.SearchRequest` /
                        ``SearchResponse`` wire shapes
``checkpoint``          write the relations as a ``node`` object (``ir.bats``
                        plus its manifest) into a directory
``bootstrap``           replace the relations from a ``node`` object,
                        stamped with the generation its manifest records
``set_fault``           inject per-search latency (tests, benchmarks)
``shutdown``            reply, then stop serving
======================  ====================================================

Reads run concurrently; writes (``add_documents``, ``remove_document``,
``bootstrap``) serialize against them on the service layer's
write-preferring :class:`~repro.service.rwlock.RwLock` — the same
discipline the coordinator's :class:`~repro.service.SearchService`
applies, one level down.

Run standalone with ``python -m repro.remote.worker --port 0``: the
worker binds, prints one ``{"ready": true, "port": ...}`` JSON line on
stdout (the spawn handshake :mod:`repro.remote.replicas` reads), and
serves until ``shutdown`` or SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path

from repro.errors import (QueryError, RemoteProtocolError,
                          RemoteTransportError, ReproError)
from repro.ir.distributed import node_topn
from repro.ir.relations import IrRelations
from repro.persistence.manifest import IR_PART, Manifest, save_ir_object
from repro.remote.protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                   recv_frame, send_frame)
from repro.service import api
from repro.service.rwlock import RwLock

__all__ = ["NodeWorker", "main"]


class NodeWorker:
    """A process-local node server: private relations behind socket RPC."""

    def __init__(self, name: str = "worker", host: str = "127.0.0.1",
                 port: int = 0, fragment_count: int = 4,
                 max_frame_bytes: int = MAX_FRAME_BYTES):
        self.name = name
        self.fragment_count = fragment_count
        self.max_frame_bytes = max_frame_bytes
        self.relations = IrRelations()
        self._rw = RwLock()
        self._fault_delay_ms = 0.0
        self._closing = threading.Event()
        self._conn_threads: list[threading.Thread] = []
        # live connections: close() wakes their idle keep-alive reads
        self._conns: set[socket.socket] = set()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        # short accept timeout: the serve loop polls the closing flag
        self._listener.settimeout(0.1)
        self.host, self.port = self._listener.getsockname()[:2]

    # -- serving ---------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close`; one thread each."""
        try:
            while not self._closing.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name=f"repro-worker-{self.name}")
                thread.start()
                self._conn_threads.append(thread)
                self._reap_threads()
        finally:
            self._listener.close()
            for thread in self._conn_threads:
                thread.join(timeout=5.0)

    def serve_in_thread(self) -> threading.Thread:
        """Run the accept loop on a background thread (in-process tests)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name=f"repro-worker-{self.name}-acceptor")
        thread.start()
        return thread

    def close(self) -> None:
        """Stop accepting; in-flight connections finish their frame.

        ``SHUT_RD`` wakes a connection thread parked on an idle
        keep-alive read at once (it reads EOF) while a request already
        being served can still send its reply; without it the serve
        loop would wait out each idle thread's join timeout.
        """
        self._closing.set()
        for conn in list(self._conns):
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its thread
                pass

    def _reap_threads(self) -> None:
        self._conn_threads = [thread for thread in self._conn_threads
                              if thread.is_alive()]

    def _serve_connection(self, conn: socket.socket) -> None:
        self._conns.add(conn)
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # a stuck or long-idle client must not pin the connection
            # thread forever; its pool re-sends on a fresh connection
            conn.settimeout(300.0)
            try:
                self._serve_frames(conn)
            finally:
                self._conns.discard(conn)

    def _serve_frames(self, conn: socket.socket) -> None:
        """Answer frame after frame: a client keeps its connection."""
        while not self._closing.is_set():
            try:
                request = recv_frame(conn, self.max_frame_bytes)
            except (RemoteProtocolError, RemoteTransportError):
                # a torn or malformed frame poisons the stream; the
                # only safe reaction is to drop the connection
                return
            if request is None:
                return  # clean EOF
            reply = self._dispatch(request)
            try:
                send_frame(conn, reply, self.max_frame_bytes)
            except (RemoteProtocolError, RemoteTransportError):
                return  # peer went away (e.g. a cancelled hedge)
            if request.get("op") == "shutdown":
                self.close()
                return

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) \
            else None
        if handler is None or (isinstance(op, str) and op.startswith("_")):
            return self._error(QueryError(f"unknown worker op {op!r}"))
        version = request.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            return self._error(QueryError(
                f"unsupported protocol version {version!r}; this worker "
                f"speaks {PROTOCOL_VERSION}"))
        try:
            return {"v": PROTOCOL_VERSION, "ok": True,
                    "value": handler(request)}
        except ReproError as error:
            return self._error(error)
        except (KeyError, TypeError, ValueError, OSError) as error:
            return self._error(error)

    @staticmethod
    def _error(error: Exception) -> dict:
        return {"v": PROTOCOL_VERSION, "ok": False,
                "error": str(error) or type(error).__name__,
                "kind": type(error).__name__}

    # -- ops -------------------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return {"name": self.name, "pid": os.getpid()}

    def _op_status(self, request: dict) -> dict:
        with self._rw.read_locked():
            return {
                "name": self.name,
                "pid": os.getpid(),
                "documents": self.relations.document_count(),
                "generation": self.relations.generation,
                "collection_length": self.relations.collection_length,
            }

    def _op_add_documents(self, request: dict) -> dict:
        documents = request["documents"]
        with self._rw.write_locked():
            for url, text in documents:
                self.relations.add_document(url, text)
            return {"count": len(documents),
                    "generation": self.relations.generation}

    def _op_remove_document(self, request: dict) -> dict:
        with self._rw.write_locked():
            self.relations.remove_document(request["url"])
            return {"generation": self.relations.generation}

    def _op_refresh(self, request: dict) -> dict:
        with self._rw.read_locked():
            self.relations.postings_index().fragments(self.fragment_count)
            return {"generation": self.relations.generation}

    def _op_search(self, request: dict) -> dict:
        search = api.SearchRequest.from_dict(request["request"])
        terms = request["terms"]
        global_idf = request["idf"]
        started = time.perf_counter()
        delay_ms = self._fault_delay_ms
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)  # injected straggler latency
        with self._rw.read_locked():
            fragments = self.relations.postings_index().fragments(
                self.fragment_count)
            local = node_topn(self.relations, fragments, terms, global_idf,
                              search.policy)
            pairs = [(self.relations.doc_url(doc), score)
                     for doc, score in local.ranking]
            generation = self.relations.generation
        response = api.response_from_ranking(
            search, pairs, api.elapsed_ms_since(started),
            tuples_touched=local.tuples_read)
        reply = response.to_dict()
        reply["accounting"] = {
            "tuples_read": local.tuples_read,
            "fragments_read": local.fragments_read,
            "stopped_early": local.stopped_early,
            "generation": generation,
        }
        return reply

    def _op_checkpoint(self, request: dict) -> dict:
        with self._rw.read_locked():
            manifest = save_ir_object(self.relations, request["path"],
                                      "node", seq=int(request["seq"]))
            return {"generation": manifest.generation}

    def _op_bootstrap(self, request: dict) -> dict:
        manifest = Manifest.load(request["path"], "node")
        restored = IrRelations.load(Path(request["path"]) / IR_PART,
                                    manifest.generation)
        with self._rw.write_locked():
            self.relations = restored
            return {"documents": restored.document_count(),
                    "generation": restored.generation}

    def _op_set_fault(self, request: dict) -> dict:
        self._fault_delay_ms = float(request.get("delay_ms", 0.0))
        return {"delay_ms": self._fault_delay_ms}

    def _op_shutdown(self, request: dict) -> dict:
        return {"name": self.name, "stopping": True}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.remote.worker``."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="one shared-nothing search node (socket RPC)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port; 0 picks an ephemeral port")
    parser.add_argument("--name", default="worker")
    parser.add_argument("--fragments", type=int, default=4)
    args = parser.parse_args(argv)
    try:
        worker = NodeWorker(name=args.name, host=args.host, port=args.port,
                            fragment_count=args.fragments)
    except OSError as error:
        print(json.dumps({"ready": False, "error": str(error)}),
              flush=True)
        return 1
    # the spawn handshake: exactly one JSON line, then silence
    print(json.dumps({"ready": True, "name": worker.name,
                      "host": worker.host, "port": worker.port,
                      "pid": os.getpid()}), flush=True)
    signal.signal(signal.SIGTERM, lambda *_: worker.close())
    signal.signal(signal.SIGINT, lambda *_: worker.close())
    worker.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
