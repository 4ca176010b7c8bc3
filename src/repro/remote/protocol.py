"""Length-prefixed JSON framing for the worker RPC.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON; a connection carries a sequence of frames in each
direction.  The format deliberately has no compression, no streaming
and no negotiation — a shared-nothing node exchanges small requests
(term lists, pushed idf weights) and small replies (a top-N ranking),
and the failure modes that matter are the blunt ones:

* a **torn frame** — the stream ends inside the header or body
  (worker crashed, connection reset) — raises
  :class:`~repro.errors.RemoteTransportError`,
* an **oversized frame** — the length prefix exceeds ``max_bytes`` —
  raises :class:`~repro.errors.RemoteProtocolError` *before* any body
  byte is read, so a corrupt or hostile peer cannot make the receiver
  allocate unboundedly,
* **malformed JSON** or a non-object payload — also a
  :class:`~repro.errors.RemoteProtocolError`,
* a **read deadline** — the socket timeout expires — surfaces as
  :class:`~repro.errors.RemoteTransportError` tagged ``deadline``.

Every request and reply object carries ``"v": PROTOCOL_VERSION`` so a
future frame-format change is detectable instead of mysterious.  Byte
counts flow onto the ``remote.bytes_sent`` / ``remote.bytes_received``
telemetry counters at the call sites (client and worker), keeping this
module free of side effects.

:func:`recv_frame` reads one frame off a blocking socket;
:class:`FrameBuffer` decodes one from whatever pieces a readiness-driven
caller hands it, so a reply that arrives in halves never blocks a loop
serving other sockets.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.errors import RemoteProtocolError, RemoteTransportError

__all__ = ["PROTOCOL_VERSION", "MAX_FRAME_BYTES", "send_frame",
           "recv_frame", "FrameBuffer"]

#: Version stamp carried by every RPC request and reply object.
PROTOCOL_VERSION = 1

#: Default bound on one frame's body.  Large enough for a bulk
#: ``add_documents`` shipment, small enough that a corrupt length
#: prefix cannot exhaust memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


def send_frame(sock: socket.socket, payload: dict,
               max_bytes: int = MAX_FRAME_BYTES) -> int:
    """Serialize ``payload`` and write one frame; returns bytes written.

    Oversized payloads are refused on the *sending* side too, so a
    well-behaved peer never even emits a frame the receiver must kill
    the connection over.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_bytes:
        raise RemoteProtocolError(
            f"refusing to send oversized frame: {len(body)} bytes "
            f"(max {max_bytes})")
    try:
        sock.sendall(_HEADER.pack(len(body)) + body)
    except socket.timeout as exc:
        raise RemoteTransportError(
            f"send deadline exceeded: {exc}") from exc
    except OSError as exc:
        raise RemoteTransportError(f"send failed: {exc}") from exc
    return _HEADER.size + len(body)


def _recv_exactly(sock: socket.socket, count: int, what: str) -> bytes:
    chunks = []
    received = 0
    while received < count:
        try:
            chunk = sock.recv(min(65536, count - received))
        except socket.timeout as exc:
            raise RemoteTransportError(
                f"read deadline exceeded while reading {what}") from exc
        except OSError as exc:
            raise RemoteTransportError(
                f"connection failed while reading {what}: {exc}") from exc
        if not chunk:
            raise RemoteTransportError(
                f"torn frame: stream ended after {received}/{count} "
                f"bytes of {what}")
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one frame; returns its payload, or ``None`` on clean EOF.

    Clean EOF — the stream ending exactly on a frame boundary — is the
    peer's orderly goodbye and is not an error; EOF anywhere *inside* a
    frame is a torn frame and raises.
    """
    try:
        first = sock.recv(1)
    except socket.timeout as exc:
        raise RemoteTransportError(
            "read deadline exceeded while waiting for a frame") from exc
    except OSError as exc:
        raise RemoteTransportError(
            f"connection failed while waiting for a frame: {exc}") from exc
    if not first:
        return None
    header = first + _recv_exactly(sock, _HEADER.size - 1, "frame header")
    length = _body_length(header, max_bytes)
    return _decode_body(_recv_exactly(sock, length, "frame body"))


class FrameBuffer:
    """Incremental decoder of one frame whose bytes arrive in pieces.

    :meth:`feed` takes whatever one ``recv`` returned and answers the
    payload once the frame is complete (``None`` before).  The oversized
    check runs as soon as the header is in, before the body is awaited.
    Once complete, :attr:`size` is the frame's wire size as its length
    prefix stated it.
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES):
        self.max_bytes = max_bytes
        self.size = 0
        self._data = bytearray()
        self._length: int | None = None

    @property
    def received(self) -> int:
        """Bytes fed so far (0: nothing of the frame has arrived)."""
        return len(self._data)

    def feed(self, chunk: bytes) -> dict | None:
        self._data += chunk
        if self._length is None:
            if len(self._data) < _HEADER.size:
                return None
            self._length = _body_length(self._data[:_HEADER.size],
                                        self.max_bytes)
        end = _HEADER.size + self._length
        if len(self._data) < end:
            return None
        self.size = end
        return _decode_body(bytes(self._data[_HEADER.size:end]))


def _body_length(header: bytes, max_bytes: int) -> int:
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise RemoteProtocolError(
            f"oversized frame announced: {length} bytes "
            f"(max {max_bytes})")
    return length


def _decode_body(body: bytes) -> dict:
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RemoteProtocolError(f"malformed frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise RemoteProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(payload).__name__}")
    return payload
