"""Framing tests: roundtrips, torn frames, oversized frames, clean EOF."""

import json
import socket
import struct
import threading

import pytest

from repro.errors import RemoteProtocolError, RemoteTransportError
from repro.remote.protocol import (MAX_FRAME_BYTES, FrameBuffer, recv_frame,
                                   send_frame)

pytestmark = pytest.mark.remote


def socket_pair():
    return socket.socketpair()


class TestRoundtrip:
    def test_payload_survives_the_wire(self):
        left, right = socket_pair()
        with left, right:
            payload = {"op": "search", "terms": ["a", "b"],
                       "idf": {"a": 0.5, "b": 1.0 / 3.0}, "n": 10}
            sent = send_frame(left, payload)
            assert recv_frame(right) == payload
            body = json.dumps(payload, separators=(",", ":")).encode()
            assert sent == 4 + len(body)

    def test_float_bits_roundtrip_exactly(self):
        """JSON float round-trips preserve the exact double, which is
        what makes process-backend rankings bit-identical."""
        left, right = socket_pair()
        with left, right:
            values = [1.0 / 3.0, 0.1 + 0.2, 1e-308, 123456.789012345]
            send_frame(left, {"v": values})
            received = recv_frame(right)["v"]
            assert all(a == b and str(a) == str(b)
                       for a, b in zip(values, received))

    def test_many_frames_on_one_connection(self):
        left, right = socket_pair()
        with left, right:
            for index in range(20):
                send_frame(left, {"seq": index})
            for index in range(20):
                assert recv_frame(right) == {"seq": index}


class TestFrameBuffer:
    def test_frame_fed_byte_by_byte(self):
        left, right = socket_pair()
        with left, right:
            payload = {"ok": True, "value": {"hits": [1, 2, 3]}}
            sent = send_frame(left, payload)
            wire = right.recv(sent)
        buffer = FrameBuffer()
        for byte in wire[:-1]:
            assert buffer.feed(bytes([byte])) is None
        assert buffer.received == sent - 1
        assert buffer.feed(wire[-1:]) == payload
        assert buffer.size == sent

    def test_oversized_header_rejected_before_body(self):
        header = struct.pack(">I", 2 ** 31)
        buffer = FrameBuffer(max_bytes=1024)
        assert buffer.feed(header[:2]) is None
        with pytest.raises(RemoteProtocolError, match="oversized"):
            buffer.feed(header[2:])


class TestTornFrames:
    def test_eof_inside_header_is_transport_error(self):
        left, right = socket_pair()
        with right:
            left.sendall(b"\x00\x00")  # half a header
            left.close()
            with pytest.raises(RemoteTransportError, match="torn frame"):
                recv_frame(right)

    def test_eof_inside_body_is_transport_error(self):
        left, right = socket_pair()
        with right:
            left.sendall(struct.pack(">I", 100) + b'{"partial":')
            left.close()
            with pytest.raises(RemoteTransportError, match="torn frame"):
                recv_frame(right)

    def test_clean_eof_at_frame_boundary_is_none(self):
        left, right = socket_pair()
        with right:
            send_frame(left, {"last": True})
            left.close()
            assert recv_frame(right) == {"last": True}
            assert recv_frame(right) is None

    def test_read_deadline_is_transport_error(self):
        left, right = socket_pair()
        with left, right:
            right.settimeout(0.05)
            with pytest.raises(RemoteTransportError, match="deadline"):
                recv_frame(right)


class TestProtocolViolations:
    def test_oversized_announcement_rejected_before_body(self):
        left, right = socket_pair()
        with left, right:
            left.sendall(struct.pack(">I", 2 ** 31))
            with pytest.raises(RemoteProtocolError, match="oversized"):
                recv_frame(right, max_bytes=1024)

    def test_oversized_send_refused_locally(self):
        left, right = socket_pair()
        with left, right:
            with pytest.raises(RemoteProtocolError, match="oversized"):
                send_frame(left, {"blob": "x" * 2048}, max_bytes=1024)

    def test_malformed_json_is_protocol_error(self):
        left, right = socket_pair()
        with left, right:
            body = b"{not json"
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(RemoteProtocolError, match="malformed"):
                recv_frame(right)

    def test_non_object_payload_is_protocol_error(self):
        left, right = socket_pair()
        with left, right:
            body = b"[1, 2, 3]"
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(RemoteProtocolError, match="JSON object"):
                recv_frame(right)

    def test_default_bound_is_generous_but_finite(self):
        assert MAX_FRAME_BYTES == 64 * 1024 * 1024


class TestConcurrentUse:
    def test_shutdown_aborts_a_blocked_recv(self):
        """Socket shutdown is the hedge-cancellation mechanism: a
        blocked reader must wake immediately, not wait for data.  It
        has to be ``shutdown(SHUT_RDWR)`` — the executor's actual
        cancellation call — because a bare ``close()`` leaves a recv
        already blocked in the kernel blocked forever (the in-flight
        syscall pins the descriptor)."""
        left, right = socket_pair()
        outcomes = []
        done = threading.Event()

        def reader():
            try:
                outcomes.append(recv_frame(right))
            except (RemoteTransportError, RemoteProtocolError) as exc:
                outcomes.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=reader)
        thread.start()
        right.shutdown(socket.SHUT_RDWR)
        assert done.wait(timeout=5.0), "blocked recv did not abort"
        thread.join(timeout=5.0)
        right.close()
        left.close()
        assert outcomes == [None]  # the wake reads as clean EOF
