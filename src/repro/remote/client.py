"""Socket client for one node worker: deadlines, pooling, typed errors.

An RPC is two halves.  :meth:`WorkerClient.send` puts the request on a
connection and returns the :class:`Exchange` awaiting its reply;
:meth:`WorkerClient.receive` blocks until that reply is in.
:meth:`~WorkerClient.call` is one then the other.  The fan-out loop
(:mod:`repro.cluster.executor`) drives many exchanges from one thread
instead: it waits until an exchange's socket is readable and
:meth:`Exchange.feed`\\ s it.

Connections are kept alive.  Each client keeps a few idle connections
to its worker (``TCP_NODELAY`` on both ends), and the worker serves
frame after frame on one connection.  Two rules keep a reply from ever
reaching the wrong request:

* a connection goes back to the pool only once its reply frame has been
  read in full; a cancelled, timed-out, torn or failed one is closed;
* a *pooled* connection that ends cleanly (or is reset) before any
  reply byte is one the worker dropped while it sat idle.  The request
  is re-sent once on a fresh connection, and that is not a failure of
  the worker.  A fresh connection that does the same is.

Cancellation is :meth:`Exchange.close`: ``shutdown`` + ``close``, and
the socket is never pooled.

Failure taxonomy (what callers key replica-health decisions on):

* :class:`~repro.errors.RemoteTransportError` — connect refused/reset,
  deadline exceeded, torn frame.  The *worker* is suspect; the replica
  set marks it unhealthy and fails over.
* :class:`~repro.errors.RemoteProtocolError` — oversized or malformed
  frames.  A bug or corruption; never mere slowness.
* :class:`~repro.errors.RemoteError` — the worker executed the request
  and replied with a structured error (``ok: false``); ``kind`` names
  the worker-side exception type.  The worker is healthy.

Byte, call and connection counts land on the ``remote.rpcs`` /
``remote.connects`` / ``remote.bytes_sent`` / ``remote.bytes_received``
telemetry counters; received bytes are counted from the length prefix
actually read.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.errors import RemoteError, RemoteTransportError
from repro.remote.protocol import (MAX_FRAME_BYTES, PROTOCOL_VERSION,
                                   FrameBuffer, send_frame)
from repro.telemetry.runtime import get_telemetry

__all__ = ["WorkerClient", "Exchange", "DEFAULT_CONNECT_TIMEOUT_S"]

#: Connect budget when the caller supplies no deadline: workers are
#: local processes, so a connect that takes longer than this is dead.
DEFAULT_CONNECT_TIMEOUT_S = 5.0

#: Idle connections kept per worker; one per concurrent caller is
#: plenty, and a surplus connection is closed rather than pooled.
_IDLE_LIMIT = 4


class Exchange:
    """One request on one connection, until its reply frame is read."""

    #: the fan-out loop wakes an exchange when its socket is readable,
    #: never on a timer
    wake_at = None

    def __init__(self, client: "WorkerClient", request: dict,
                 deadline: float | None):
        self.client = client
        self.request = request
        self.deadline = deadline
        self.sock: socket.socket | None = None
        self.reused = False
        self._frame = FrameBuffer(client.max_frame_bytes)
        self._reply: dict | None = None

    def remaining(self, what: str) -> float | None:
        """Seconds left before the deadline (``None``: no deadline)."""
        if self.deadline is None:
            return None
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RemoteTransportError(
                f"deadline exceeded {what} {self.client.name}")
        return left

    def transmit(self, sock: socket.socket, reused: bool) -> None:
        """Send the request on ``sock``, which this exchange now owns."""
        self.sock, self.reused = sock, reused
        sock.settimeout(self.remaining("before sending to"))
        sent = send_frame(sock, self.request, self.client.max_frame_bytes)
        get_telemetry().metrics.counter("remote.bytes_sent").add(sent)

    def reopen(self) -> None:
        """Re-send on a fresh connection (the pooled one had gone)."""
        self.close()
        self.transmit(self.client.connect(self.deadline), reused=False)

    def feed(self) -> bool:
        """Read what the socket holds; True once the reply is complete.

        One ``recv``: called when the socket is readable it never
        blocks, and :meth:`WorkerClient.receive` loops it under the
        socket's deadline timeout.  A pooled connection that ends before
        any reply byte was dropped by the worker while idle: the request
        is re-sent once on a fresh connection (:meth:`reopen`, a new
        ``sock``) and this returns False.
        """
        name, op = self.client.name, self.request["op"]
        try:
            chunk = self.sock.recv(65536)
        except socket.timeout as exc:
            raise RemoteTransportError(
                f"read deadline exceeded awaiting {name}") from exc
        except OSError as exc:
            if isinstance(exc, ConnectionError) and self.reused \
                    and not self._frame.received:
                self.reopen()
                return False
            raise RemoteTransportError(
                f"connection to {name} failed: {exc}") from exc
        if not chunk:
            if self._frame.received:
                raise RemoteTransportError(
                    f"torn frame: {name} closed the connection after "
                    f"{self._frame.received} bytes of the reply to "
                    f"{op!r}")
            if self.reused:
                self.reopen()
                return False
            raise RemoteTransportError(
                f"worker {name} closed the connection before replying "
                f"to {op!r}")
        self._reply = self._frame.feed(chunk)
        return self._reply is not None

    def result(self) -> dict:
        """Pool the connection and return the complete reply's value.

        Raises :class:`RemoteError` for an ``ok: false`` reply — the
        frame was read in full, so the connection is pooled either way.
        """
        self.client.release(self.sock)
        self.sock = None
        get_telemetry().metrics.counter("remote.bytes_received").add(
            self._frame.size)
        reply = self._reply
        if reply.get("ok"):
            return reply.get("value", {})
        raise RemoteError(
            f"worker {self.client.name} failed {self.request['op']!r}: "
            f"{reply.get('error', 'unknown error')}",
            kind=reply.get("kind"))

    def close(self) -> None:
        """Cancel: shut the connection down; it is never pooled."""
        sock, self.sock = self.sock, None
        if sock is not None:
            _close(sock)


class WorkerClient:
    """Typed RPC calls against one worker address."""

    def __init__(self, host: str, port: int, name: str = "worker",
                 max_frame_bytes: int = MAX_FRAME_BYTES):
        self.host = host
        self.port = port
        self.name = name
        self.max_frame_bytes = max_frame_bytes
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerClient({self.name}@{self.host}:{self.port})"

    # -- connections -----------------------------------------------------

    def connect(self, deadline: float | None) -> socket.socket:
        """A fresh connection, within the deadline's remaining budget."""
        timeout = DEFAULT_CONNECT_TIMEOUT_S if deadline is None \
            else max(deadline - time.monotonic(), 0.001)
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=timeout)
        except socket.timeout as exc:
            raise RemoteTransportError(
                f"connect to {self.name} ({self.host}:{self.port}) "
                f"timed out") from exc
        except OSError as exc:
            raise RemoteTransportError(
                f"connect to {self.name} ({self.host}:{self.port}) "
                f"failed: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        get_telemetry().metrics.counter("remote.connects").add(1)
        return sock

    def release(self, sock: socket.socket) -> None:
        """Pool a connection whose reply was read in full."""
        with self._lock:
            if len(self._idle) < _IDLE_LIMIT:
                self._idle.append(sock)
                return
        _close(sock)

    def close(self) -> None:
        """Close every idle connection (the worker is going away)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            _close(sock)

    # -- RPC -------------------------------------------------------------

    def send(self, op: str, params: dict | None = None, *,
             deadline_s: float | None = None) -> Exchange:
        """First half of an RPC: the request is on the wire on return.

        ``deadline_s`` bounds the *whole* call (connect + send + reply)
        measured from entry; ``None`` means the default connect budget
        and no read deadline.
        """
        request = {"v": PROTOCOL_VERSION, "op": op}
        if params:
            request.update(params)
        deadline = None if deadline_s is None \
            else time.monotonic() + deadline_s
        get_telemetry().metrics.counter("remote.rpcs").add(1)
        exchange = Exchange(self, request, deadline)
        with self._lock:
            pooled = self._idle.pop() if self._idle else None
        try:
            if pooled is None:
                exchange.transmit(self.connect(deadline), reused=False)
            else:
                try:
                    exchange.transmit(pooled, reused=True)
                except RemoteTransportError:
                    exchange.reopen()  # the worker dropped it while idle
        except BaseException:
            exchange.close()
            raise
        return exchange

    def receive(self, exchange: Exchange) -> dict:
        """Second half: block until the reply is in (or the deadline)."""
        try:
            while True:
                exchange.sock.settimeout(exchange.remaining("awaiting"))
                if exchange.feed():
                    break
        except BaseException:
            exchange.close()
            raise
        return exchange.result()

    def call(self, op: str, params: dict | None = None, *,
             deadline_s: float | None = None) -> dict:
        """One RPC: :meth:`send`, then :meth:`receive`."""
        return self.receive(self.send(op, params, deadline_s=deadline_s))

    def ping(self, deadline_s: float | None = 2.0) -> dict:
        return self.call("ping", deadline_s=deadline_s)


def _close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # already reset or never connected
        pass
    sock.close()
