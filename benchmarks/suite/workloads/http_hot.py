"""``http-hot``: the front door, two keep-alive connections, hot queries."""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from http.client import HTTPResponse

from repro.core.config import ExecutionPolicy
from repro.ir.engine import IrEngine
from repro.service import SearchRequest, SearchService, serve
from repro.service.api import MODE_FRAGMENTED

from benchmarks.suite import corpus
from benchmarks.suite.measure import QUERY, Measurement
from benchmarks.suite.workloads import (CheckFailed, Workload, keys_of,
                                        median, prefix_mean, self_ms,
                                        service_layer_metrics)

#: responses kept for the encode/decode timing of a traced run
RECORDED = 300


class KeepAliveClient:
    """One persistent HTTP/1.1 connection, as a web tier would hold it.

    The request leaves in a single write and no socket option is set.
    ``http.client`` would do neither: it writes head and body apart and
    turns ``TCP_NODELAY`` on to hide that, which would also hide part
    of what this workload exists to show — a stall that is the
    server's to fix, not the client's to work around.
    """

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.head = (f"POST /v1/search HTTP/1.1\r\nHost: {host}:{port}\r\n"
                     "Content-Type: application/json\r\n")

    def post(self, body: bytes) -> tuple[int, bytes]:
        self.sock.sendall(
            f"{self.head}Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body)
        reply = HTTPResponse(self.sock, method="POST")
        reply.begin()
        return reply.status, reply.read()

    def close(self) -> None:
        self.sock.close()


class HttpHot(Workload):
    name = "http-hot"
    why = ("Keep-alive POST /v1/search of cache-resident queries: engine "
           "time is ~0.1 ms, so service.httpd and service.api do the work.")
    clients = 2
    documents = 2000
    min_ops = 500

    def set_up(self) -> None:
        engine = IrEngine(fragment_count=4)
        for url, text in corpus.documents(self.documents, self.seed):
            engine.index(url, text)
        self.queries = corpus.hot_set(self.seed)
        exhaustive = ExecutionPolicy(prune=False, cache=False)
        # pruning guarantees the top-N *set*; member order may differ
        self.reference = [
            set(keys_of(engine.execute(SearchRequest(
                query=query, mode=MODE_FRAGMENTED, policy=exhaustive))))
            for query in self.queries]
        self.service = SearchService(
            self.recorder.wrap(engine, {"execute": "ir/execute"}))
        self.httpd = serve(self.recorder.wrap(
            self.service, {"search": "service.service/search"}))
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)
        self.thread.start()
        host, port = self.httpd.server_address[:2]
        self.connections = [KeepAliveClient(host, port)
                            for _ in range(self.clients)]
        self.recorded: list[tuple[bytes, bytes]] = []
        if not self._request(0, 0, "setup").ok:
            raise CheckFailed("http-hot: first answer is wrong")

    def warm_up(self) -> None:
        for index in range(len(self.queries)):
            self._request(index % self.clients, index, f"warm{index}")

    def _request(self, client: int, index: int, number):
        trace_id = f"{self.name}-{client}-{number}"
        body = json.dumps(SearchRequest(
            query=self.queries[index], mode=MODE_FRAGMENTED,
            trace_id=trace_id).to_dict()).encode("utf-8")
        sample, outcome = self.timed(
            QUERY, "service.httpd/round_trip", trace_id,
            lambda: self.connections[client].post(body))
        if outcome is None:
            return sample
        status, payload = outcome
        if status != 200:
            sample.ok = False
            sample.detail["error"] = f"HTTP {status}"
            return sample
        reply = json.loads(payload)
        sample.ok = {hit["key"] for hit in reply["hits"]} \
            == self.reference[index]
        sample.detail.update(tuples=reply["tuples_touched"],
                             cache_hit=reply["cache_hit"],
                             queue_ms=reply["timings"]["queue_ms"],
                             bytes=len(payload))
        if len(self.recorded) < RECORDED:
            self.recorded.append((body, payload))
        return sample

    def units(self):
        def client_unit(client: int):
            stream = corpus.hot_stream(self.seed, client, len(self.queries))
            numbers = itertools.count()
            return lambda: [self._request(client, next(stream),
                                          next(numbers))]
        return [client_unit(client) for client in range(self.clients)]

    def layer_metrics(self, measurement: Measurement, telemetry,
                      prefix: int, report: dict) -> dict[str, float]:
        from repro.service.api import SearchResponse

        samples = measurement.all(QUERY)
        decode_ms, encode_ms = [], []
        for body, payload in self.recorded:
            started = time.perf_counter()
            SearchRequest.from_dict(json.loads(body))
            decode_ms.append((time.perf_counter() - started) * 1000.0)
            response = SearchResponse.from_dict(json.loads(payload))
            started = time.perf_counter()
            json.dumps(response.to_dict(), default=str).encode("utf-8")
            encode_ms.append((time.perf_counter() - started) * 1000.0)
        metrics = service_layer_metrics(self.service, samples)
        metrics.update(
            httpd_self_ms=self_ms(report, "service.httpd"),
            service_self_ms=self_ms(report, "service.service"),
            engine_ms=self_ms(report, "ir"),
            response_bytes=median(s.detail.get("bytes", 0) for s in samples),
            api_decode_ms=median(decode_ms),
            api_encode_ms=median(encode_ms),
            tuples_per_query=prefix_mean(measurement, prefix, "tuples"))
        return metrics

    def tear_down(self) -> None:
        for connection in self.connections:
            connection.close()
        self.httpd.shutdown_gracefully(5.0)
        self.httpd.server_close()
        self.thread.join(5.0)
