"""The record format: framing, checksums, corruption taxonomy."""

import struct

import pytest

from repro.wal.record import (HEADER_BYTES, MAX_RECORD_BYTES, Record,
                              decode_records, encode_record)

pytestmark = pytest.mark.wal


def test_round_trip_preserves_seq_op_and_params():
    record = Record(7, "reindex", {"url": "http://x", "text": "a b c"})
    decoded = decode_records(encode_record(record))
    assert decoded.torn is None
    assert decoded.records == [record]


def test_stream_of_records_decodes_in_order():
    records = [Record(i, "remove", {"url": f"u{i}"}) for i in range(1, 6)]
    data = b"".join(encode_record(record) for record in records)
    decoded = decode_records(data)
    assert decoded.records == records
    assert decoded.intact_bytes == len(data)


def test_params_default_to_empty_dict():
    data = encode_record(Record(1, "populate"))
    (record,) = decode_records(data).records
    assert record.params == {}


def test_truncated_header_is_torn_not_an_error():
    data = encode_record(Record(1, "populate"))
    decoded = decode_records(data + data[:HEADER_BYTES - 2])
    assert decoded.torn == "truncated_header"
    assert decoded.records == [Record(1, "populate")]
    assert decoded.intact_bytes == len(data)


def test_truncated_payload_is_torn_at_the_last_intact_record():
    first = encode_record(Record(1, "remove", {"url": "a"}))
    second = encode_record(Record(2, "remove", {"url": "b"}))
    decoded = decode_records(first + second[:-3])
    assert decoded.torn == "truncated_payload"
    assert [record.seq for record in decoded.records] == [1]
    assert decoded.intact_bytes == len(first)


def test_bit_flip_in_payload_fails_the_checksum():
    data = bytearray(encode_record(Record(1, "remove", {"url": "abc"})))
    data[HEADER_BYTES + 4] ^= 0x40
    decoded = decode_records(bytes(data))
    assert decoded.torn == "checksum"
    assert decoded.records == []
    assert decoded.intact_bytes == 0


def test_corrupt_length_field_is_rejected_as_oversized():
    data = bytearray(encode_record(Record(1, "populate")))
    struct.pack_into(">I", data, 0, MAX_RECORD_BYTES + 1)
    decoded = decode_records(bytes(data))
    assert decoded.torn == "oversized"
    assert decoded.records == []


def test_nothing_past_the_first_tear_is_trusted():
    intact = encode_record(Record(1, "populate"))
    flipped = bytearray(encode_record(Record(2, "populate")))
    flipped[HEADER_BYTES] ^= 0x01
    later = encode_record(Record(3, "populate"))
    decoded = decode_records(intact + bytes(flipped) + later)
    assert decoded.torn == "checksum"
    assert [record.seq for record in decoded.records] == [1]
    assert decoded.intact_bytes == len(intact)


def test_empty_stream_is_clean():
    decoded = decode_records(b"")
    assert decoded.torn is None
    assert decoded.records == []
    assert decoded.intact_bytes == 0
