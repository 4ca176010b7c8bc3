"""Test helpers: walk a column container's sections and damage them.

Independent of :mod:`repro.monetdb.persistence`'s reader: the layout is
re-read here from its documented framing (12-byte file header, then
``kind · u64 length · u32 CRC-32 · payload`` sections).
"""

import struct

SECTION = struct.Struct("<cQI")
FILE_HEADER_SIZE = 12


def sections(data: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of every section of a well-formed container."""
    spans, offset = [], FILE_HEADER_SIZE
    while offset < len(data):
        _, length, _ = SECTION.unpack_from(data, offset)
        spans.append((offset, offset + SECTION.size + length))
        offset += SECTION.size + length
    assert offset == len(data), "not a well-formed container"
    return spans


def damaged(data: bytes):
    """``(section number, defect, bytes)`` for one defect of each class
    in every section: truncation at its boundary, inside its frame and
    inside its payload, a flipped bit in its kind, length, CRC and
    payload — and trailing garbage after the last one."""
    spans = sections(data)
    for number, (start, end) in enumerate(spans):
        yield number, "cut at the boundary", data[:start]
        yield number, "cut inside the frame", data[:start + 5]
        yield number, "cut inside the payload", data[:end - 1]
        for field, offset in (("kind", start), ("length", start + 2),
                              ("crc", start + 9),
                              ("payload", (start + SECTION.size + end) // 2)):
            flipped = bytearray(data)
            flipped[offset] ^= 0x10
            yield number, f"{field} bit flip", bytes(flipped)
    yield len(spans) - 1, "trailing garbage", data + b"\x00\x01"
