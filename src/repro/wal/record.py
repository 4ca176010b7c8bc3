"""The WAL record format: length-prefixed, checksummed, self-delimiting.

One record on disk is::

    [4 bytes BE payload length][4 bytes BE CRC-32 of payload][payload]

where the payload is compact UTF-8 JSON ``{"seq": …, "op": …,
"params": …}``.  The two-field header makes the stream self-delimiting
and every corruption mode *detectable at the record boundary*:

* a crash mid-append leaves a short header or a short payload — a
  **torn tail**, cut off at the last intact record;
* a bit flip anywhere in the payload fails the CRC;
* a bit flip in the length field either fails the CRC of the
  misaligned "payload" or claims an absurd length rejected by
  :data:`MAX_RECORD_BYTES`.

Decoding never trusts bytes past the first failure: recovery truncates
there (later bytes were written after the torn record and are
unreachable by any reader that respects the format).

The same :class:`Record` type carries the replica layer's per-node
op-log entries (:mod:`repro.remote.replicas`), so bootstrap replay and
coordinator recovery speak one format.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

__all__ = ["HEADER_BYTES", "MAX_RECORD_BYTES", "Record", "DecodeResult",
           "encode_record", "decode_records"]

_HEADER = struct.Struct(">II")

#: Bytes of framing before every payload (length + CRC-32).
HEADER_BYTES = _HEADER.size

#: Upper bound on one record's payload; a length field above this is
#: treated as corruption, not as an instruction to allocate 4 GiB.
MAX_RECORD_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class Record:
    """One logged writer operation."""

    seq: int
    op: str
    params: dict = field(default_factory=dict)

    def to_payload(self) -> bytes:
        return json.dumps(
            {"seq": self.seq, "op": self.op, "params": self.params},
            separators=(",", ":"), sort_keys=True).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "Record":
        data = json.loads(payload.decode("utf-8"))
        return cls(seq=int(data["seq"]), op=str(data["op"]),
                   params=dict(data.get("params", {})))


def encode_record(record: Record) -> bytes:
    """The on-disk bytes of one record (header + payload)."""
    payload = record.to_payload()
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class DecodeResult:
    """What one decoding pass recovered from a byte stream.

    ``intact_bytes`` is the offset just past the last intact record —
    the truncation point recovery cuts a torn segment back to.
    ``torn`` names the first failure (``None`` for a clean stream):
    ``"truncated_header"`` / ``"truncated_payload"`` for a tail cut
    mid-record, ``"checksum"`` for a CRC mismatch, ``"oversized"`` for
    a corrupt length field, ``"malformed"`` for payload bytes that
    pass the CRC but are not a record (should be unreachable without
    a software bug, detected anyway).
    """

    records: list[Record] = field(default_factory=list)
    intact_bytes: int = 0
    torn: str | None = None


def decode_records(data: bytes) -> DecodeResult:
    """Decode a byte stream up to the first torn or corrupt record."""
    result = DecodeResult()
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < HEADER_BYTES:
            result.torn = "truncated_header"
            return result
        length, checksum = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            result.torn = "oversized"
            return result
        start = offset + HEADER_BYTES
        if total - start < length:
            result.torn = "truncated_payload"
            return result
        payload = data[start:start + length]
        if zlib.crc32(payload) != checksum:
            result.torn = "checksum"
            return result
        try:
            record = Record.from_payload(payload)
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            result.torn = "malformed"
            return result
        result.records.append(record)
        offset = start + length
        result.intact_bytes = offset
    return result
