"""The JSON/HTTP daemon over a :class:`SearchService`.

``repro-search serve`` exposes the wire contract of
:mod:`repro.service.api` on a stdlib
:class:`~socketserver.ThreadingTCPServer` — one OS thread per
connection, each funneling into the service's admission control, so
HTTP concurrency is bounded by ``ServicePolicy`` rather than by the
socket backlog:

* ``POST /v1/search`` — body is :meth:`SearchRequest.to_dict`, reply
  is :meth:`SearchResponse.to_dict` (both ``schema_version``-stamped).
  Bodies may opt into ``schema_version: 2`` to use the rich query
  language plus ``filters``/``facets``/``sort``/``limit``/``offset``/
  ``boosts``; a missing ``schema_version`` always means 1 and v1
  replies are byte-identical to before schema 2 existed,
* ``POST /v1/search:bulk`` — body is ``{"requests": [...]}`` (each
  item a ``POST /v1/search`` body, at most
  :data:`~repro.service.api.MAX_BULK_ITEMS`); the batch is admitted
  once and evaluated under one read-lock hold
  (:meth:`SearchService.execute_bulk`), and the reply's ``results``
  array aligns positionally with the request array — each slot a
  response dict or, with per-item error isolation, an error envelope,
* ``GET /healthz`` — liveness + service state (503 once draining),
* ``GET /metrics`` — the service status plus the active telemetry
  metric snapshot.

Status mapping is part of the contract: a shed request is **429** with
a ``Retry-After`` header (never a 5xx — overload is flow control, not
failure), a draining/closed service is **503**, a malformed request is
**400**, and only an unexpected engine fault is **500**.  Every
non-200 body is the one frozen
:class:`~repro.service.api.ErrorResponse` envelope — ``{"error":
{"kind", "message", "retry_after"?}, "schema_version"}`` — and the
``Retry-After`` *header* behavior is byte-identical to the
pre-envelope daemon.

The request loop is this module's own (:class:`_Handler`), so the
envelope also covers what never reaches a route: bytes that are not an
HTTP/1.x request, a ``Content-Length`` that is not a decimal within
:data:`MAX_BODY_BYTES`, any ``Transfer-Encoding``, an over-long line or
header block are **400** ``bad_request`` and end the connection; a
known path under another method is **405** with ``Allow``.  Each reply
leaves in a single ``sendall`` on a ``TCP_NODELAY`` socket: written as
two small segments, the second waits ~40 ms for a keep-alive client's
delayed ACK.
"""

from __future__ import annotations

import json
import math
import socketserver
import time
from email.utils import formatdate
from http import HTTPStatus

from repro.errors import QueryError, ReproError, ServiceClosedError, \
    ServiceOverloadedError
from repro.service.api import (MAX_BULK_ITEMS, SCHEMA_VERSION,
                               ErrorResponse, SearchRequest)
from repro.service.service import SearchService
from repro.telemetry.runtime import get_telemetry

__all__ = ["SearchServiceServer", "retry_after_header", "serve"]

#: Largest request body read off a socket: a full
#: :data:`~repro.service.api.MAX_BULK_ITEMS` batch at 32 KiB per item.
MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_LINE_BYTES = 64 * 1024
_MAX_HEADERS = 100
_BLANK = (b"\r\n", b"\n")


def retry_after_header(retry_after: float) -> str:
    """The ``Retry-After`` header value for one shed response.

    Integral seconds, rounded *up* and clamped to ``>= 1``: the
    admission controller estimates sub-second waits (e.g. 0.05s until
    the token bucket refills), and a naive round-down would emit
    ``Retry-After: 0`` — which compliant clients read as "retry
    immediately", turning flow control into a retry storm.
    """
    return str(max(1, math.ceil(retry_after)))


class SearchServiceServer(socketserver.ThreadingTCPServer):
    """A threading HTTP server bound to one :class:`SearchService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: SearchService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self._date = (0, "")
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def date_header(self) -> str:
        """The ``Date`` value, formatted at most once per second (a
        racing handler at worst formats the same second twice)."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = formatdate(now, usegmt=True)
            self._date = (now, text)
        return text

    def shutdown_gracefully(self, timeout: float | None = None) -> bool:
        """Drain the service, then stop accepting connections."""
        drained = self.service.drain(timeout)
        self.shutdown()
        return drained


class _BadFraming(Exception):
    """The bytes on the socket do not frame a request this daemon
    reads: answered 400, and the connection cannot be kept in step."""


def _load_json(body: bytes):
    try:
        return json.loads(body or b"{}")
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; a
        # nesting bomb exhausts the decoder's stack instead
        raise QueryError(f"malformed request body: {exc}") from None


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a loop of request in, one pre-joined reply out.

    Every reply is HTTP/1.1 with an explicit ``Content-Length``; the
    connection stays open unless the request was HTTP/1.0, asked for
    ``Connection: close``, or could not be framed.
    """

    # a reply longer than one segment must not wait at its tail for the
    # client's delayed ACK either
    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.keep_alive = True
        try:
            while self.keep_alive:
                self._handle_one()
        except OSError:
            # the client left mid-request or mid-reply; nobody to tell
            pass

    def _handle_one(self) -> None:
        self.head_only = False
        try:
            request = self._read_request()
        except _BadFraming as exc:
            self.keep_alive = False
            self._send_error(400, "bad_request", str(exc))
            return
        if request is None:
            self.keep_alive = False
            return
        method, path, body = request
        route = _ROUTES.get(path)
        if route is None:
            self._send_error(404, "not_found",
                             f"no such endpoint {path!r}")
            return
        allowed, respond = route
        if method != allowed:
            self._send_error(405, "bad_request",
                             f"{path} answers {allowed}, not {method}",
                             headers=f"Allow: {allowed}\r\n")
            return
        respond(self, body)

    # -- request framing --------------------------------------------------

    def _read_line(self) -> bytes:
        line = self.rfile.readline(_MAX_LINE_BYTES + 1)
        if len(line) > _MAX_LINE_BYTES:
            raise _BadFraming("request line or header line exceeds "
                              f"{_MAX_LINE_BYTES} bytes")
        return line

    def _read_request(self) -> tuple[str, str, bytes] | None:
        """``(method, path, body)`` of the next request; ``None`` once
        the client has gone (cleanly between requests, or mid-request —
        either way there is nobody to answer)."""
        line = self._read_line()
        while line in _BLANK:
            # RFC 7230 §3.5: tolerate blank lines ahead of a request
            line = self._read_line()
        if not line.endswith(b"\n"):
            return None
        words = line.split()
        if len(words) != 3 or words[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
            raise _BadFraming("not an HTTP/1.0 or HTTP/1.1 request line: "
                              f"{line[:80].decode('latin-1')!r}")
        method, path = words[0].decode("latin-1"), words[1].decode("latin-1")
        self.head_only = method == "HEAD"
        headers: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._read_line()
            if line in _BLANK:
                break
            if not line.endswith(b"\n"):
                return None
            name, colon, value = line.partition(b":")
            if not colon or not name or name != name.strip():
                raise _BadFraming("malformed header line "
                                  f"{line[:80].decode('latin-1')!r}")
            name, value = name.lower(), value.strip()
            # a repeated header is its values comma-joined, which a
            # repeated Content-Length then fails the decimal check on
            headers[name] = headers[name] + b", " + value \
                if name in headers else value
        else:
            raise _BadFraming(f"more than {_MAX_HEADERS} header lines")
        connection = headers.get(b"connection")
        if words[2] == b"HTTP/1.0" or connection is not None and b"close" in [
                token.strip() for token in connection.lower().split(b",")]:
            self.keep_alive = False
        if b"transfer-encoding" in headers:
            raise _BadFraming("Transfer-Encoding is not supported; frame "
                              "the body with Content-Length")
        declared = headers.get(b"content-length", b"0")
        # ascii digits only: int() would also take b'+5', b' 5', b'5_0'
        length = int(declared) \
            if declared.isdigit() and len(declared) < 20 else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            raise _BadFraming("Content-Length must be a decimal between 0 "
                              f"and {MAX_BODY_BYTES}, not "
                              f"{declared[:40].decode('latin-1')!r}")
        if not length:
            return method, path, b""
        if headers.get(b"expect", b"").lower() == b"100-continue":
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length)
        if len(body) < length:
            return None
        return method, path, body

    # -- routes -----------------------------------------------------------

    def _post_search(self, body: bytes) -> None:
        try:
            request = SearchRequest.from_dict(_load_json(body))
            response = self.server.service.search(request)
        except ReproError as exc:
            self._send_failure(exc)
            return
        self._send_json(200, response.to_dict())

    def _post_search_bulk(self, body: bytes) -> None:
        try:
            payload = _load_json(body)
        except QueryError as exc:
            self._send_failure(exc)
            return
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("requests"), list):
            self._send_error(400, "bad_request",
                             "bulk body must be a JSON object with a "
                             "'requests' array")
            return
        items = payload["requests"]
        if not items:
            self._send_error(400, "bad_request",
                             "bulk 'requests' array must not be empty")
            return
        if len(items) > MAX_BULK_ITEMS:
            self._send_error(400, "bad_request",
                             f"bulk batch of {len(items)} requests "
                             f"exceeds the {MAX_BULK_ITEMS}-item cap; "
                             "split the batch")
            return
        # per-item error isolation starts at the parse: a malformed
        # item occupies its result slot with an error envelope while
        # the well-formed rest of the batch still executes
        slots: list[object] = []
        parsed: list[tuple[int, SearchRequest]] = []
        for position, item in enumerate(items):
            try:
                parsed.append((position, SearchRequest.from_dict(item)))
                slots.append(None)
            except QueryError as exc:
                slots.append(ErrorResponse.from_exception(exc))
        try:
            if parsed:
                outcomes = self.server.service.execute_bulk(
                    [request for _, request in parsed])
                for (position, _), outcome in zip(parsed, outcomes):
                    slots[position] = outcome
        except ReproError as exc:
            self._send_failure(exc)
            return
        errors = sum(1 for slot in slots
                     if isinstance(slot, ErrorResponse))
        self._send_json(200, {
            "schema_version": SCHEMA_VERSION,
            "items": len(slots),
            "errors": errors,
            "results": [slot.to_dict() for slot in slots],
        })

    def _get_healthz(self, body: bytes) -> None:
        status = self.server.service.status()
        self._send_json(200 if status["state"] == "running" else 503,
                        status)

    def _get_metrics(self, body: bytes) -> None:
        status = self.server.service.status()
        status["metrics"] = get_telemetry().metrics.snapshot()
        self._send_json(200, status)

    # -- replies ----------------------------------------------------------

    def _send_json(self, code: int, payload: dict,
                   headers: str = "") -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        if not self.keep_alive:
            headers += "Connection: close\r\n"
        head = (f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n"
                "Server: repro-search\r\n"
                f"Date: {self.server.date_header()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n{headers}\r\n")
        # head and body leave in one write: flushed apart, the body
        # segment waits ~40 ms for a keep-alive client's delayed ACK
        self.request.sendall(head.encode("latin-1")
                             + (b"" if self.head_only else body))

    def _send_envelope(self, code: int, envelope: ErrorResponse,
                       headers: str = "") -> None:
        """One envelope for every non-200; the ``Retry-After`` header
        (integral, clamped, only on shed responses) is unchanged from
        the pre-envelope contract."""
        if envelope.retry_after is not None:
            headers += ("Retry-After: "
                        f"{retry_after_header(envelope.retry_after)}\r\n")
        self._send_json(code, envelope.to_dict(), headers)

    def _send_error(self, code: int, kind: str, message: str,
                    headers: str = "") -> None:
        self._send_envelope(code, ErrorResponse(kind=kind, message=message),
                            headers)

    def _send_failure(self, error: ReproError) -> None:
        """A library exception: this module maps it to a status,
        :meth:`ErrorResponse.from_exception` to the kind and message,
        exactly as for a bulk item."""
        if isinstance(error, ServiceOverloadedError):
            code = 429
        elif isinstance(error, ServiceClosedError):
            code = 503
        else:
            code = 400 if isinstance(error, QueryError) else 500
        self._send_envelope(code, ErrorResponse.from_exception(error))


#: path -> (the one method it answers, the handler method)
_ROUTES = {
    "/v1/search": ("POST", _Handler._post_search),
    "/v1/search:bulk": ("POST", _Handler._post_search_bulk),
    "/healthz": ("GET", _Handler._get_healthz),
    "/metrics": ("GET", _Handler._get_metrics),
}


def serve(service: SearchService, host: str = "127.0.0.1",
          port: int = 0) -> SearchServiceServer:
    """Bind a server (port 0 picks an ephemeral port); caller runs
    ``serve_forever`` — or drives it from a background thread, as the
    tests do."""
    return SearchServiceServer(service, host, port)
