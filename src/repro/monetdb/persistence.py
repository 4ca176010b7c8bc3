"""Snapshot persistence for a server catalog: one binary column container.

Monet is a main-memory system of binary relations with explicit
persistence, and a BAT *is* two columns — so a catalog file stores
columns, not records.  A container (``*.bats``) is a file header and a
run of length-prefixed, checksummed sections::

    header    magic b"MONETBAT" · u32 container version
    section   kind (1 byte) · u64 payload length · u32 CRC-32 · payload

All integers are little-endian.  The CRC-32 covers the stored payload,
so a flipped bit is caught before anything is decoded.  The first
section (kind ``H``) is the header — JSON naming the catalog's next oid,
each BAT's name, atom types and count, and (under ``columns``, when
there are any) each *plain* column's name and count — then every BAT
contributes its head and its tail column, in header order (BAT ``i``'s
head is column ``2i``, its tail column ``2i + 1``), and after them
every plain column its one section, in header order.  A plain column
belongs to no BAT: it is an integer column the caller lays out itself
(the IR part's term-clustered postings segment).  Every payload but a
plain column's is zlib level 1 (a constant of the format, not an
option):

=====  ======================  ==========================================
kind   column                  payload before zlib
=====  ======================  ==========================================
``q``  int64 (oid, int)        the raw ``array('q')`` bytes
``d``  float64 (flt)           the raw ``array('d')`` bytes
``r``  a packed column equal   one u64: the number of that earlier column
       to an earlier one of    (the IR part's vocabulary heads are one
       the same typecode       column stored once, not twice)
``s``  str, url                ``count`` int64 character lengths, then
                               one UTF-8 blob (``surrogatepass``)
``j``  anything else           one JSON list — int64-overflow spills,
                               ``bit``, custom ADTs
``u``  a plain column of       not compressed: one width byte (1, 2, 4
       non-negative int64      or 8), then ``count`` little-endian
       values                  unsigned integers of that width — the
                               narrowest that holds the column's maximum
=====  ======================  ==========================================

A file ends after its last section.  Loading is ``frombytes`` plus
column operations: no per-association parsing.  Truncation, a flipped
bit, a bad magic or version, a count that disagrees with its column, a
corrupt zlib stream, a back-reference to a column not yet read or of
another length or typecode, a width byte outside {1, 2, 4, 8}, a plain
column's length other than count × width, and trailing bytes are each
a typed :class:`~repro.errors.SnapshotError` naming the file — never a
silent partial load.  Writes go through the atomic path (temp file,
fsync, ``os.replace``), so an interrupted :func:`save_catalog` leaves
the previous file intact.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from itertools import accumulate
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import AtomTypeError, BatError, SnapshotError
from repro.monetdb.atoms import AtomType, atom_type
from repro.monetdb.catalog import Catalog

__all__ = ["CONTAINER_MAGIC", "CONTAINER_VERSION", "save_catalog",
           "load_catalog"]

CONTAINER_MAGIC = b"MONETBAT"
#: Bumped whenever the container layout changes; readers refuse others.
CONTAINER_VERSION = 3

_FILE_HEADER = struct.Struct("<8sI")
_SECTION = struct.Struct("<cQI")
_LEVEL = 1
_HEADER, _TEXT, _JSON, _REFERENCE, _PLAIN = b"H", b"s", b"j", b"r", b"u"
_WIDTHS = (1, 2, 4, 8)
_ORDINAL = struct.Struct("<Q")
_TEXT_ATOMS = ("str", "url")
# raw columns are stored little-endian whatever the host
_SWAP = sys.byteorder == "big"


def _little_endian(column: array) -> bytes:
    if _SWAP:
        column = column[:]
        column.byteswap()
    return column.tobytes()


def _section(kind: bytes, raw: bytes) -> bytes:
    payload = raw if kind == _PLAIN else zlib.compress(raw, _LEVEL)
    return _SECTION.pack(kind, len(payload), zlib.crc32(payload)) + payload


def _plain_section(values: np.ndarray) -> bytes:
    """A plain column's section: the narrowest unsigned width that holds
    its maximum, then the values at that width."""
    if len(values) and values.min() < 0:
        raise ValueError("a plain column holds non-negative values only")
    top = int(values.max()) if len(values) else 0
    width = next(width for width in _WIDTHS if top < 1 << 8 * width)
    return _section(_PLAIN, bytes([width])
                    + values.astype(f"<u{width}").tobytes())


def _kinds(atom: AtomType) -> bytes:
    """The section kinds a column of ``atom`` may be stored as."""
    if atom.typecode:
        return atom.typecode.encode() + _REFERENCE + _JSON  # or spilled
    return _TEXT if atom.name in _TEXT_ATOMS else _JSON


def _column_section(atom: AtomType, column: Any, number: int,
                    stored: dict[tuple[str, bytes], int]) -> bytes:
    """Column ``number``'s section; a packed column equal to one in
    ``stored`` (typecode and bytes -> column number) points back to it."""
    if isinstance(column, array):
        raw = _little_endian(column)
        earlier = stored.setdefault((column.typecode, raw), number)
        if earlier != number:
            return _section(_REFERENCE, _ORDINAL.pack(earlier))
        return _section(column.typecode.encode(), raw)
    if atom.name in _TEXT_ATOMS:
        lengths = array("q", map(len, column))
        return _section(_TEXT, _little_endian(lengths) + "".join(
            column).encode("utf-8", "surrogatepass"))
    return _section(_JSON, json.dumps(column).encode("utf-8"))


def save_catalog(catalog: Catalog, path: str | Path, *,
                 names: Sequence[str] | None = None,
                 columns: Mapping[str, np.ndarray] | None = None) -> int:
    """Atomically write the catalog to ``path`` as one column container.

    ``names`` picks the BATs to write (default: all, sorted); ``columns``
    adds plain columns, non-negative integer arrays by name.  Returns
    the number of values written — associations plus plain column
    values — which the manifest stores next to the file's checksum.
    The file records the catalog's next oid, so a restore keeps handing
    out collision-free oids.
    """
    from repro.persistence.atomic import atomic_write

    names = catalog.names() if names is None else list(names)
    bats = [catalog.get(name) for name in names]
    columns = dict(columns or {})
    header = {
        "next_oid": int(catalog.oids.peek()),
        "bats": [{"name": name, "head": bat.head_type.name,
                  "tail": bat.tail_type.name, "count": len(bat)}
                 for name, bat in zip(names, bats)],
    }
    if columns:
        header["columns"] = [{"name": name, "count": len(values)}
                             for name, values in columns.items()]
    with atomic_write(Path(path), "wb") as stream:
        stream.write(_FILE_HEADER.pack(CONTAINER_MAGIC, CONTAINER_VERSION))
        stream.write(_section(_HEADER, json.dumps(header).encode("utf-8")))
        stored: dict[tuple[str, bytes], int] = {}
        for number, bat in enumerate(bats):
            for side, (atom, column) in enumerate(zip(
                    (bat.head_type, bat.tail_type), bat.raw_columns())):
                stream.write(_column_section(atom, column, 2 * number + side,
                                             stored))
        for values in columns.values():
            stream.write(_plain_section(values))
    return sum(map(len, bats)) + sum(map(len, columns.values()))


class _Container:
    """A cursor over one container's bytes; every defect is typed."""

    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.view = memoryview(data)
        self.path = path
        self.offset = _FILE_HEADER.size
        self.columns: list[Sequence] = []  # read so far, in file order
        if len(data) < _FILE_HEADER.size:
            raise self.error(f"truncated container header "
                             f"({len(data)} bytes)")
        magic, version = _FILE_HEADER.unpack_from(data)
        if magic != CONTAINER_MAGIC:
            raise self.error(f"not a column container (magic {magic!r})")
        if version != CONTAINER_VERSION:
            raise self.error(f"unsupported container version {version} "
                             f"(this reader speaks {CONTAINER_VERSION})")

    def error(self, message: str) -> SnapshotError:
        return SnapshotError(f"{message}: {self.path}", path=self.path)

    def section(self, what: str) -> tuple[bytes, bytes]:
        """The next section's kind and its payload, inflated unless it
        is a plain column's."""
        start = self.offset
        end = start + _SECTION.size
        if end > len(self.data):
            raise self.error(f"truncated before the {what} section")
        kind, length, crc = _SECTION.unpack_from(self.data, start)
        if length > len(self.data) - end:
            raise self.error(f"truncated inside the {what} section")
        payload = self.view[end:end + length]
        if zlib.crc32(payload) != crc:
            raise self.error(f"CRC-32 mismatch in the {what} section")
        self.offset = end + length
        if kind == _PLAIN:
            return kind, payload
        try:
            return kind, zlib.decompress(payload)
        except zlib.error as exc:
            raise self.error(f"corrupt zlib stream in the {what} section "
                             f"({exc})") from exc

    def column(self, atom: AtomType, count: int, what: str) -> Sequence:
        self.columns.append(self._column(atom, count, what))
        return self.columns[-1]

    def _column(self, atom: AtomType, count: int, what: str) -> Sequence:
        kind, raw = self.section(what)
        if kind not in _kinds(atom):
            raise self.error(f"{kind!r} section cannot hold the {what} "
                             f"({atom.name})")
        if kind == _REFERENCE:
            return self._reference(raw, atom, count, what)
        if kind == _JSON:
            try:
                values = json.loads(raw)
            except ValueError as exc:
                raise self.error(f"malformed {what}: {exc}") from exc
            if not isinstance(values, list) or len(values) != count:
                raise self.error(f"the {what} does not hold {count} values")
            return values
        if kind == _TEXT:
            return self._text(raw, count, what)
        values = array(kind.decode())
        if len(raw) != count * values.itemsize:
            raise self.error(f"the {what} holds {len(raw)} bytes, not "
                             f"{count} values")
        values.frombytes(raw)
        if _SWAP:
            values.byteswap()
        return values

    def plain(self, count: int, what: str) -> np.ndarray:
        """The next section as a plain column: int64 values, a copy."""
        kind, payload = self.section(what)
        if kind != _PLAIN:
            raise self.error(f"{kind!r} section cannot hold the {what}")
        width = payload[0] if len(payload) else 0
        if width not in _WIDTHS:
            raise self.error(f"the {what} has width {width}, not one of "
                             f"{_WIDTHS}")
        if len(payload) - 1 != count * width:
            raise self.error(f"the {what} holds {len(payload) - 1} bytes, "
                             f"not {count} values of {width} bytes")
        values = np.frombuffer(payload, dtype=f"<u{width}", offset=1)
        if width == 8 and len(values) and values.max() >= 1 << 63:
            raise self.error(f"the {what} holds a value past int64")
        return values.astype(np.int64)

    def _reference(self, raw: bytes, atom: AtomType, count: int,
                   what: str) -> array:
        """The earlier column a reference section names.  BATs mutate
        their columns, but none shares this one: ``append_many`` copies
        it into each BAT's own."""
        if len(raw) != _ORDINAL.size:
            raise self.error(f"malformed back-reference for the {what}")
        number, = _ORDINAL.unpack(raw)
        if number >= len(self.columns):
            raise self.error(f"the {what} refers to column {number}, "
                             "which is not yet read")
        earlier = self.columns[number]
        if not isinstance(earlier, array) \
                or earlier.typecode != atom.typecode or len(earlier) != count:
            raise self.error(f"the {what} refers to column {number}, of "
                             "another length or typecode")
        return earlier

    def _text(self, raw: bytes, count: int, what: str) -> list[str]:
        split = count * 8
        lengths = array("q")
        if len(raw) < split:
            raise self.error(f"the {what} lacks its {count} lengths")
        lengths.frombytes(raw[:split])
        if _SWAP:
            lengths.byteswap()
        try:
            text = raw[split:].decode("utf-8", "surrogatepass")
        except UnicodeDecodeError as exc:
            raise self.error(f"malformed UTF-8 in the {what}") from exc
        ends = list(accumulate(lengths, initial=0))
        if min(lengths, default=0) < 0 or ends[-1] != len(text):
            raise self.error(f"the {what}'s lengths do not add up to its "
                             f"{len(text)} characters")
        return [text[start:end] for start, end in zip(ends, ends[1:])]

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise self.error(f"{len(self.data) - self.offset} trailing "
                             "bytes after the last section")


def _header(container: _Container, raw: bytes
            ) -> tuple[int, list, list[tuple[str, int]]]:
    """``(next_oid, [(name, head atom, tail atom, count), ...],
    [(plain column name, count), ...])``."""
    try:
        header = json.loads(raw)
        entries = [(str(entry["name"]), atom_type(entry["head"]),
                    atom_type(entry["tail"]), int(entry["count"]))
                   for entry in header["bats"]]
        plain = [(str(entry["name"]), int(entry["count"]))
                 for entry in header.get("columns", [])]
        next_oid = int(header["next_oid"])
    except (AtomTypeError, KeyError, TypeError, ValueError) as exc:
        raise container.error(f"malformed BAT header ({exc})") from exc
    if any(count < 0 for *_, count in entries + plain):
        raise container.error("negative count in the BAT header")
    if len(dict(plain)) != len(plain):
        raise container.error("a plain column is named twice in the BAT "
                              "header")
    return next_oid, entries, plain


def load_catalog(path: str | Path, *, oid_start: int = 0,
                 oid_stride: int = 1
                 ) -> tuple[Catalog, dict[str, np.ndarray]]:
    """Load a container written by :func:`save_catalog`: its catalog and
    its plain columns by name (int64 arrays).

    ``oid_start``/``oid_stride`` reconstruct a cluster node's strided
    oid sequence, so a restored shared-nothing server keeps handing out
    collision-free oids.  Every section is decoded and checked before
    the first BAT is created; a missing file or any defect raises
    :class:`~repro.errors.SnapshotError` (a :class:`CatalogError`
    subclass, so pre-existing handlers still apply).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"unreadable container {path}: {exc}",
                            path=path) from exc
    container = _Container(data, path)
    kind, raw = container.section("BAT header")
    if kind != _HEADER:
        raise container.error(f"expected the BAT header section, found a "
                              f"{kind!r} section")
    next_oid, entries, plain = _header(container, raw)
    columns = [(container.column(head, count, f"head column of {name!r}"),
                container.column(tail, count, f"tail column of {name!r}"))
               for name, head, tail, count in entries]
    plain_columns = {name: container.plain(count, f"plain column {name!r}")
                     for name, count in plain}
    container.finish()
    catalog = Catalog(oid_start=oid_start, oid_stride=oid_stride)
    for (name, head, tail, _), (heads, tails) in zip(entries, columns):
        try:
            catalog.create(name, head, tail).append_many(heads, tails)
        except (AtomTypeError, BatError) as exc:
            raise container.error(f"invalid values in {name!r}: "
                                  f"{exc}") from exc
    catalog.oids.advance_past(next_oid - 1)
    return catalog, plain_columns
