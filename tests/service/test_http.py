"""HTTP round-trips against the JSON daemon on an ephemeral port."""

import contextlib
import email.utils
import io
import json
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExecutionPolicy
from repro.ir.engine import IrEngine
from repro.service import (ErrorResponse, SearchRequest, SearchService,
                           SearchServiceServer, ServicePolicy, serve)
from repro.service.api import SCHEMA_VERSION
from repro.service.httpd import MAX_BODY_BYTES

from tests.service.conftest import build_ir_engine

pytestmark = pytest.mark.service


def post(base, payload, timeout=5.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + "/v1/search", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as reply:
        return reply.status, json.loads(reply.read())


@pytest.fixture()
def server():
    engine = build_ir_engine(documents=30)
    service = SearchService(engine, ServicePolicy(
        max_inflight=4, max_queue=8))
    httpd = serve(service, "127.0.0.1", 0)  # port 0: ephemeral
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown_gracefully(5.0)
        httpd.server_close()
        thread.join(5.0)


class TestSearchEndpoint:
    def test_a_range_over_a_superscript_digit_token_is_a_200(self):
        # regression: '²'.isdigit() is true, float('²') raises, and the
        # range query answered with the `internal` error kind
        engine = IrEngine()
        engine.index("Tournament:t1:year", "final 1999 ²")
        engine.index("Tournament:t2:year", "١٩٩٧")
        service = SearchService(engine)
        httpd = serve(service, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            status, payload = post(httpd.address, {
                "schema_version": 2, "query": "year:1990-2000",
                "mode": "content"})
        finally:
            httpd.shutdown_gracefully(5.0)
            httpd.server_close()
            thread.join(5.0)
        assert status == 200 and "error" not in payload
        assert sorted(hit["key"] for hit in payload["hits"]) == \
            ["Tournament:t1:year", "Tournament:t2:year"]

    def test_roundtrip_speaks_the_versioned_contract(self, server):
        request = SearchRequest(query="trophy champion", mode="content",
                                policy=ExecutionPolicy(n=3),
                                trace_id="req-42")
        status, payload = post(server.address, request.to_dict())
        assert status == 200
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["trace_id"] == "req-42"
        assert payload["rows"] == len(payload["hits"]) <= 3
        assert all(hit["score"] >= 0.0 for hit in payload["hits"])
        assert payload["timings"]["total_ms"] >= 0.0

    def test_malformed_json_is_a_400(self, server):
        request = urllib.request.Request(
            server.address + "/v1/search", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 400

    def test_bad_request_fields_are_a_400_with_the_reason(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.address, {"query": "trophy", "mode": "semantic"})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["error"]["kind"] == "bad_request"
        assert "mode" in body["error"]["message"]

    def test_a_query_nesting_bomb_is_a_400_not_internal(self, server):
        # regression: RecursionError in the schema-2 parser surfaced as
        # the `internal` kind
        bomb = "(" * 5000 + "hello" + ")" * 5000
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.address, {"schema_version": 2, "query": bomb,
                                  "mode": "content"})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["kind"] == "bad_request"
        assert "nests deeper" in body["error"]["message"]
        # the server is unharmed: a sane nested query answers
        status, _ = post(server.address, {"schema_version": 2,
                                          "query": "(trophy)",
                                          "mode": "content"})
        assert status == 200

    def test_unknown_endpoint_is_a_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.address + "/v2/search",
                                   timeout=5.0)
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["error"]["kind"] == "not_found"


class TestOverloadIsNeverA5xx:
    def test_rate_limited_requests_get_429_with_retry_after(self):
        engine = build_ir_engine(documents=30)
        service = SearchService(engine, ServicePolicy(rate=0.5, burst=1))
        httpd = serve(service, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            request = SearchRequest(query="trophy", mode="content")
            status, _ = post(httpd.address, request.to_dict())
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(httpd.address, request.to_dict())
            assert excinfo.value.code == 429
            assert float(excinfo.value.headers["Retry-After"]) >= 1.0
            body = json.loads(excinfo.value.read())
            assert body["error"]["kind"] == "rate"
            assert body["error"]["retry_after"] > 0.0
        finally:
            httpd.shutdown_gracefully(5.0)
            httpd.server_close()
            thread.join(5.0)


class TestIntrospectionEndpoints:
    def test_healthz_reports_running(self, server):
        with urllib.request.urlopen(server.address + "/healthz",
                                    timeout=5.0) as reply:
            payload = json.loads(reply.read())
        assert reply.status == 200
        assert payload["state"] == "running"
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_metrics_carries_counters_and_telemetry(self, server):
        request = SearchRequest(query="trophy", mode="content")
        post(server.address, request.to_dict())
        with urllib.request.urlopen(server.address + "/metrics",
                                    timeout=5.0) as reply:
            payload = json.loads(reply.read())
        assert payload["counters"]["admitted"] >= 1
        assert "metrics" in payload

    def test_draining_service_fails_healthz_and_sheds_searches(self):
        engine = build_ir_engine(documents=20)
        service = SearchService(engine)
        httpd = serve(service, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            service.drain(5.0)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(httpd.address + "/healthz",
                                       timeout=5.0)
            assert excinfo.value.code == 503
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(httpd.address,
                     SearchRequest(query="trophy",
                                   mode="content").to_dict())
            assert excinfo.value.code == 503
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(5.0)


class TestRetryAfterClamp:
    """The header is clamped to >= 1 whole second: sub-second hints
    serialize as ``Retry-After: 0`` and compliant clients hammer."""

    def test_sub_second_hints_clamp_to_one(self):
        from repro.service.httpd import retry_after_header

        assert retry_after_header(0.0) == "1"
        assert retry_after_header(0.049) == "1"
        assert retry_after_header(0.999) == "1"

    def test_longer_hints_round_up_to_whole_seconds(self):
        from repro.service.httpd import retry_after_header

        assert retry_after_header(1.0) == "1"
        assert retry_after_header(1.2) == "2"
        assert retry_after_header(30.0) == "30"

    def test_wire_header_is_a_positive_integer(self):
        """End to end: a shed response carries an integral header >= 1
        even when the admission hint is a few milliseconds."""
        engine = build_ir_engine(documents=30)
        service = SearchService(engine, ServicePolicy(rate=2.0, burst=1))
        httpd = serve(service, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            request = SearchRequest(query="trophy", mode="content")
            status, _ = post(httpd.address, request.to_dict())
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(httpd.address, request.to_dict())
            assert excinfo.value.code == 429
            header = excinfo.value.headers["Retry-After"]
            assert header == str(int(header))  # integral, no decimals
            assert int(header) >= 1
            # the JSON body keeps the precise sub-second hint
            body = json.loads(excinfo.value.read())
            assert 0.0 < body["error"]["retry_after"] <= 1.0
        finally:
            httpd.shutdown_gracefully(5.0)
            httpd.server_close()
            thread.join(5.0)


# -- the front door: keep-alive, framing, hostile bytes ---------------------
#
# Everything above talks through urllib, which sends ``Connection:
# close`` and so never saw a keep-alive stall or a mis-framed request.
# Below, raw sockets.

SEARCH = {"query": "trophy champion", "mode": "content"}
SEARCH_BODY = json.dumps(SEARCH).encode("utf-8")


def http(method, path, body=b"", version="HTTP/1.1", headers=()):
    """One request's bytes, framed the way a careful client would."""
    lines = [f"{method} {path} {version}", "Host: test", *headers]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


def read_reply(stream, head_only=False):
    """The next HTTP/1.1 message off a buffered byte stream, checked
    for well-formedness: ``(status, headers, body)``, ``None`` at EOF."""
    line = stream.readline()
    if not line:
        return None
    assert line.endswith(b"\r\n"), line
    version, status, reason = line.decode("ascii").rstrip().split(" ", 2)
    assert version == "HTTP/1.1" and status.isdigit() and reason
    headers = {}
    while (line := stream.readline()) != b"\r\n":
        assert line.endswith(b"\r\n"), line
        name, colon, value = line.decode("latin-1").partition(":")
        assert colon and name == name.strip()
        headers[name.lower()] = value.strip()
    if status == "100":
        return 100, headers, b""
    assert "transfer-encoding" not in headers
    length = int(headers["content-length"])
    body = b"" if head_only else stream.read(length)
    assert head_only or len(body) == length
    return int(status), headers, body


class ObservedSocket:
    """An accepted socket that logs every send call on the server."""

    def __init__(self, sock, server):
        self._sock, self._server = sock, server

    def _log(self, data):
        self._server.sends.append(bytes(data))
        if self._server.fail_sends:
            raise BrokenPipeError(32, "Broken pipe")

    def send(self, data, *flags):
        self._log(data)
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self._log(data)
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class ProbeServer(SearchServiceServer):
    """The daemon, observable from a test: send calls per accepted
    socket, live handler threads, exceptions that escaped a handler
    (instead of a traceback on stderr)."""

    def __init__(self, service):
        self.sends, self.accepted, self.errors = [], [], []
        self.fail_sends = False
        self.live_handlers = 0
        self._probe_lock = threading.Lock()
        super().__init__(service, "127.0.0.1", 0)

    def get_request(self):
        sock, address = super().get_request()
        self.accepted.append(sock)
        return ObservedSocket(sock, self), address

    def process_request(self, request, client_address):
        with self._probe_lock:
            self.live_handlers += 1
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._probe_lock:
                self.live_handlers -= 1

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])

    def settle(self, connections):
        """Wait until ``connections`` were accepted and every handler
        thread has gone; a pinned thread fails here."""
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            if len(self.accepted) >= connections and not self.live_handlers:
                return
            time.sleep(0.005)
        raise AssertionError(
            f"{self.live_handlers} handler thread(s) outlived their "
            f"client ({len(self.accepted)}/{connections} accepted)")


class Connection:
    """A raw client socket with no option set, as a web tier holds it."""

    def __init__(self, server):
        self.sock = socket.create_connection(server.server_address[:2],
                                             timeout=5.0)
        self.stream = self.sock.makefile("rb")

    def send(self, data, half_close=False):
        try:
            self.sock.sendall(data)
            if half_close:
                self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server may have answered early and left

    def reply(self, head_only=False):
        return read_reply(self.stream, head_only)

    def closed_by_server(self):
        self.sock.settimeout(1.0)
        try:
            return self.stream.read(1) == b""
        except ConnectionError:
            return True
        except TimeoutError:
            return False

    def close(self):
        self.stream.close()
        self.sock.close()


@contextlib.contextmanager
def running(httpd):
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown_gracefully(5.0)
        httpd.server_close()
        thread.join(5.0)


@pytest.fixture(scope="module")
def probe():
    # one server for the module: a shutdown costs serve_forever's
    # half-second poll, and the framing table alone has thirty cases
    with running(ProbeServer(SearchService(
            build_ir_engine(documents=30),
            ServicePolicy(max_inflight=4, max_queue=8)))) as httpd:
        yield httpd


class TestOneReplyOneSegment:
    """A reply written as two small segments stalls ~40 ms on a
    keep-alive connection: Nagle holds the second until the client's
    delayed ACK of the first."""

    def test_every_reply_is_one_send_on_a_nodelay_socket(self, probe):
        bulk = json.dumps({"requests": [SEARCH, SEARCH]}).encode("utf-8")
        connection = Connection(probe)
        for raw in (http("POST", "/v1/search", SEARCH_BODY),
                    http("POST", "/v1/search:bulk", bulk),
                    http("GET", "/healthz"),
                    http("GET", "/nowhere"),
                    http("POST", "/v1/search", b"{not json")):
            before = len(probe.sends)
            connection.send(raw)
            _, _, body = connection.reply()
            assert len(probe.sends) == before + 1, raw
            assert probe.sends[-1].startswith(b"HTTP/1.1 ")
            assert body and probe.sends[-1].endswith(body)
        assert probe.accepted[-1].getsockopt(socket.IPPROTO_TCP,
                                             socket.TCP_NODELAY)
        connection.close()

    def test_keep_alive_round_trips_do_not_stall(self, server):
        # wall-clock, so the margin is wide: stalled is 40 ms a round
        # trip, healthy is well under 1 ms
        connection = Connection(server)
        request = http("POST", "/v1/search", SEARCH_BODY)
        laps = []
        for _ in range(30):
            started = time.perf_counter()
            connection.send(request)
            assert connection.reply()[0] == 200
            laps.append(time.perf_counter() - started)
        connection.close()
        assert statistics.median(laps) < 0.010


OVERSIZE = b"a" * (64 * 1024)

#: id, request bytes, status (None: no reply at all), error kind,
#: connection kept?, headers the reply must carry
FRAMING = [
    ("negative-length",
     b"POST /v1/search HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
     400, "bad_request", False, {}),
    ("length-over-the-cap",
     b"POST /v1/search HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
     % (MAX_BODY_BYTES + 1), 400, "bad_request", False, {}),
    ("length-beyond-int64",
     b"POST /v1/search HTTP/1.1\r\nContent-Length: " + b"9" * 5000
     + b"\r\n\r\n", 400, "bad_request", False, {}),
    ("length-not-decimal",
     b"POST /v1/search HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
     400, "bad_request", False, {}),
    ("length-repeated",
     b"POST /v1/search HTTP/1.1\r\nContent-Length: 2\r\n"
     b"Content-Length: 3\r\n\r\n{}", 400, "bad_request", False, {}),
    ("chunked",
     b"POST /v1/search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"2\r\n{}\r\n0\r\n\r\n", 400, "bad_request", False, {}),
    ("request-line-too-long",
     b"GET /" + OVERSIZE + b" HTTP/1.1\r\n\r\n",
     400, "bad_request", False, {}),
    ("header-line-too-long",
     b"GET /healthz HTTP/1.1\r\nX-Pad: " + OVERSIZE + b"\r\n\r\n",
     400, "bad_request", False, {}),
    ("too-many-headers",
     b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n",
     400, "bad_request", False, {}),
    ("a-hundred-headers-are-fine",
     b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 100 + b"\r\n",
     200, None, True, {}),
    ("header-without-colon",
     b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
     400, "bad_request", False, {}),
    ("folded-header",
     b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n",
     400, "bad_request", False, {}),
    ("garbage-request-line", b"\x00\x01\xfe garbage\r\n\r\n",
     400, "bad_request", False, {}),
    ("two-word-request-line", b"GET /healthz\r\n\r\n",
     400, "bad_request", False, {}),
    ("unsupported-version", b"GET /healthz HTTP/2.0\r\n\r\n",
     400, "bad_request", False, {}),
    ("unknown-method-known-path", http("PUT", "/v1/search", b"{}"),
     405, "bad_request", True, {"allow": "POST"}),
    ("get-on-a-post-path", http("GET", "/v1/search:bulk"),
     405, "bad_request", True, {"allow": "POST"}),
    ("post-on-a-get-path", http("POST", "/metrics", b"{}"),
     405, "bad_request", True, {"allow": "GET"}),
    ("head-carries-no-body", http("HEAD", "/healthz"),
     405, None, True, {"allow": "GET"}),
    ("unknown-method-unknown-path", http("BREW", "/pot"),
     404, "not_found", True, {}),
    ("http-1.1-keeps-alive", http("POST", "/v1/search", SEARCH_BODY),
     200, None, True, {}),
    ("http-1.0-closes",
     http("POST", "/v1/search", SEARCH_BODY, version="HTTP/1.0"),
     200, None, False, {}),
    ("connection-close-closes",
     http("GET", "/healthz", headers=["Connection: Keep-Alive, Close"]),
     200, None, False, {}),
    ("blank-lines-before-the-request",
     b"\r\n\r\n" + http("GET", "/healthz"), 200, None, True, {}),
    ("malformed-json-keeps-the-connection",
     http("POST", "/v1/search", b"{not json"),
     400, "bad_request", True, {}),
    ("non-utf8-body", http("POST", "/v1/search", b"\xff\xfe\xfd"),
     400, "bad_request", True, {}),
    ("nesting-bomb", http("POST", "/v1/search", b"[" * 200_000),
     400, "bad_request", True, {}),
    ("body-at-the-cap-is-read",
     http("POST", "/v1/search", b"x" * MAX_BODY_BYTES),
     400, "bad_request", True, {}),
    ("bulk-batch-over-the-item-cap",
     http("POST", "/v1/search:bulk", json.dumps(
         {"requests": [SEARCH] * 257}).encode("utf-8")),
     400, "bad_request", True, {}),
    ("client-leaves-mid-body",
     b"POST /v1/search HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"query\"",
     None, None, False, {}),
    ("client-leaves-mid-headers", b"GET /healthz HTTP/1.1\r\nHost: te",
     None, None, False, {}),
    ("client-says-nothing", b"", None, None, False, {}),
]


class TestRequestFraming:
    """Request framing is outside input: every case answers with the
    envelope (or not at all), leaves the connection in the stated
    state, and leaves no handler thread behind."""

    @pytest.mark.parametrize(
        "raw,status,kind,kept,expected",
        [pytest.param(*case[1:], id=case[0]) for case in FRAMING])
    def test_framing_table(self, probe, raw, status, kind, kept, expected):
        connections = len(probe.accepted)
        connection = Connection(probe)
        connection.send(raw, half_close=status is None)
        reply = connection.reply(head_only=raw.startswith(b"HEAD "))
        if status is None:
            assert reply is None
        else:
            code, headers, body = reply
            assert code == status
            assert headers["server"] == "repro-search"
            assert headers["content-type"] == "application/json"
            assert expected.items() <= headers.items()
            assert (headers.get("connection") == "close") == (not kept)
            if kind is not None:
                assert ErrorResponse.from_dict(json.loads(body)).kind == kind
        if kept:
            # still in step: the next request on it is answered
            connection.send(http("GET", "/healthz"))
            assert connection.reply()[0] == 200
        else:
            assert connection.closed_by_server()
        connection.close()
        probe.settle(connections + 1)
        assert probe.errors == []

    def test_expect_100_continue_is_answered_before_the_body(self, probe):
        connection = Connection(probe)
        connection.send(
            b"POST /v1/search HTTP/1.1\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(SEARCH_BODY))
        # curl withholds the body until this arrives (or a second passes)
        assert connection.reply()[0] == 100
        connection.send(SEARCH_BODY)
        assert connection.reply()[0] == 200
        connection.close()

    def test_pipelined_requests_get_their_replies_in_order(self, probe):
        connection = Connection(probe)
        connection.send(b"".join(
            http("POST", "/v1/search", json.dumps(
                SEARCH | {"trace_id": trace_id}).encode("utf-8"))
            for trace_id in ("first", "second")))
        for trace_id in ("first", "second"):
            status, _, body = connection.reply()
            assert status == 200
            assert json.loads(body)["trace_id"] == trace_id
        connection.close()

    def test_a_client_that_leaves_mid_reply_ends_quietly(self, probe,
                                                         monkeypatch):
        # every send: EPIPE, as after the client's reset
        monkeypatch.setattr(probe, "fail_sends", True)
        connections = len(probe.accepted)
        connection = Connection(probe)
        connection.send(http("GET", "/healthz"))
        assert connection.closed_by_server()
        connection.close()
        probe.settle(connections + 1)
        assert probe.errors == []  # would be a traceback on stderr

    def test_date_is_formatted_at_most_once_a_second(self, probe,
                                                     monkeypatch):
        from repro.service import httpd

        formatted = []

        def counting(*args, **kwargs):
            formatted.append(args)
            return email.utils.formatdate(*args, **kwargs)

        monkeypatch.setattr(httpd, "formatdate", counting)
        dates = set()
        connection = Connection(probe)
        for _ in range(50):
            connection.send(http("GET", "/healthz"))
            _, headers, _ = connection.reply()
            stamp = email.utils.parsedate_to_datetime(headers["date"])
            assert abs(stamp.timestamp() - time.time()) < 5.0
            assert headers["date"].endswith(" GMT")
            dates.add(headers["date"])
        connection.close()
        # 50 replies, but a second that was seen was formatted once
        assert len(formatted) <= len(dates)


def talk(server, raw):
    """Everything the server says to ``raw`` until it hangs up; the
    client half-closes, so a request the bytes leave unfinished ends."""
    connections = len(server.accepted)
    sock = socket.create_connection(server.server_address[:2], timeout=5.0)
    try:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        said = bytearray()
        try:
            while chunk := sock.recv(65536):
                said += chunk
        except ConnectionError:
            pass
    finally:
        sock.close()
    server.settle(connections + 1)
    return bytes(said)


def check_replies(raw, said):
    """``said`` is nothing, or whole HTTP/1.1 replies whose every
    non-200 body is a typed envelope that blames the client."""
    assert b"<html" not in said.lower()
    stream = io.BytesIO(said)
    head_only = raw.startswith(b"HEAD ")
    while (reply := read_reply(stream, head_only)) is not None:
        status, headers, body = reply
        if status == 100:
            continue
        assert headers["content-type"] == "application/json"
        if not head_only:
            payload = json.loads(body)
            if status != 200:
                envelope = ErrorResponse.from_dict(payload)
                assert envelope.kind != "internal"
                assert status in (400, 404, 405)
        head_only = False  # only a first request can have been HEAD


HEADER_NAMES = st.sampled_from([
    "Content-Length", "content-length", "Transfer-Encoding", "Connection",
    "Expect", "Host", "X-Junk", " Leading-Space", "No-Colon\r\nnext"]) \
    | st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
              max_size=12)
HEADER_VALUES = st.sampled_from([
    "0", "5", "-1", "1e3", str(len(SEARCH_BODY)), "99999999999", "chunked",
    "close", "keep-alive", "100-continue"]) \
    | st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=255),
              max_size=20)
REQUEST_LINES = st.sampled_from([
    "POST /v1/search HTTP/1.1", "POST /v1/search:bulk HTTP/1.1",
    "POST /v1/search HTTP/1.0", "GET /healthz HTTP/1.1",
    "GET /metrics HTTP/1.0", "HEAD /healthz HTTP/1.1",
    "PUT /v1/search HTTP/1.1", "DELETE /nowhere HTTP/1.1",
    "GET /healthz HTTP/0.9", "GET  /healthz  HTTP/1.1", "BREW /pot"])
BODIES = st.sampled_from([b"", SEARCH_BODY, b"{not json", b"[" * 3000,
                          b'{"requests": []}', b"\xff\x00"])


@st.composite
def header_blocks(draw):
    lines = [draw(REQUEST_LINES)]
    lines += [f"{name}: {value}" for name, value in draw(st.lists(
        st.tuples(HEADER_NAMES, HEADER_VALUES), max_size=8))]
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + draw(BODIES)


class TestHostileBytes:
    """No byte sequence yields HTML, an ``internal`` kind, a traceback
    or a handler thread that outlives its client."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes(self, probe, raw):
        check_replies(raw, talk(probe, raw))
        assert probe.errors == []

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(header_blocks())
    def test_arbitrary_header_blocks(self, probe, raw):
        check_replies(raw, talk(probe, raw))
        assert probe.errors == []


class RecordingService:
    """Not a ``SearchService``: the daemon may rely on nothing but the
    methods it looks up on the object it was handed."""

    def __init__(self, service):
        self._service = service
        self.responses = []

    def search(self, request):
        response = self._service.search(request)
        self.responses.append(response)
        return response

    def __getattr__(self, name):
        return getattr(self._service, name)


class TestReplyBodiesAreFrozen:
    """A 200 body is ``json.dumps(response.to_dict(), default=str)`` of
    the response the service returned — the bytes the stdlib-handler
    daemon sent — for both dialects over the ``tests/query`` corpus."""

    PAYLOADS = [
        {"query": "digital library", "mode": "content", "trace_id": "v1"},
        {"query": "digital library", "mode": "fragmented",
         "policy": {"n": 3}},
        {"schema_version": 2, "mode": "content",
         "query": 'title:database OR "digital library"^2',
         "facets": ["class"], "sort": ["key:desc"], "limit": 3,
         "offset": 1, "boosts": {"title": 2.0}},
    ]

    def test_body_is_the_service_response_verbatim(self):
        from tests.query.conftest import build_relations

        engine = IrEngine(fragment_count=4)
        engine.relations = build_relations()
        recording = RecordingService(SearchService(engine))
        with running(serve(recording, "127.0.0.1", 0)) as httpd:
            connection = Connection(httpd)
            for payload in self.PAYLOADS:
                connection.send(http("POST", "/v1/search",
                                     json.dumps(payload).encode("utf-8")))
                status, _, body = connection.reply()
                assert status == 200
                response = recording.responses[-1]
                assert response.hits
                assert body == json.dumps(response.to_dict(),
                                          default=str).encode("utf-8")
            connection.close()
        assert len(recording.responses) == len(self.PAYLOADS)
