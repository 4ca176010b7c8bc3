"""Binary Association Tables (BATs): the storage primitive of the engine.

Monet [BK95] decomposes all data into binary relations of (head, tail)
pairs.  The paper's Monet XML mapping stores every association type (one
per root-to-node path) in one such relation.  This module implements the
BAT with the operators the upper levels run:

* point lookups on head or tail,
* append with optional hash indexes kept up to date,
* batch append (:meth:`BAT.append_many`) validating whole columns at
  C speed,
* batch delete (:meth:`BAT.delete_heads`) moving the surviving rows
  with slice copies.

Columns are *packed*: oid/int tails live on ``array('q')`` and flt
tails on ``array('d')`` (eight bytes per atom, contiguous), spilling to
a plain list only for heap-object atoms (str/url/bit, custom ADTs) or
for integers outside the int64 range.  The packed layout is what the IR
relations read as numpy columns (:meth:`BAT.raw_columns`); the operator
semantics here are unchanged.

Like Monet, a BAT knows a physical property of its columns and picks
the algorithm from it: an int64-packed column remembers whether it is
*ascending* (one comparison per appended value; a load re-derives it
because loading is an append).  While the head is ascending a head
lookup is a bisect, so nothing has to build — or, after a delete,
rebuild — a hash index over the whole column.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import islice
from operator import le
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import BatError
from repro.monetdb.atoms import AtomType, Oid, atom_type
from repro.telemetry.runtime import get_telemetry

__all__ = ["BAT", "ColumnView"]

Column = "list[Any] | array"


class ColumnView(Sequence):
    """A zero-copy, read-only view over one BAT column.

    Columns are physically a list *or* an ``array`` (packed layout), so
    the view restores the value semantics callers relied on when columns
    were plain lists: ``bat.head == [1, 2]`` compares element-wise
    regardless of the storage class underneath, and oid columns (stored
    as raw int64) hand back :class:`~repro.monetdb.atoms.Oid` values.
    """

    __slots__ = ("_data", "_wrap")

    def __init__(self, data: Any, wrap: Callable[[Any], Any] | None = None):
        self._data = data
        self._wrap = wrap

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, item: Any) -> Any:
        if isinstance(item, slice):
            values = self._data[item]
            return [self._wrap(v) for v in values] if self._wrap \
                else list(values)
        value = self._data[item]
        return self._wrap(value) if self._wrap else value

    def __iter__(self) -> Iterator[Any]:
        if self._wrap:
            return map(self._wrap, self._data)
        return iter(self._data)

    def __contains__(self, value: Any) -> bool:
        return value in self._data

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ColumnView):
            other = other._data
        if isinstance(other, (list, tuple, array)):
            return (len(self._data) == len(other)
                    and all(a == b for a, b in zip(self._data, other)))
        return NotImplemented

    __hash__ = None  # mutable underneath; equality is by value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnView({list(self._data)!r})"


def _new_column(atom: AtomType) -> Any:
    """An empty column in the packed storage class of the ADT."""
    return array(atom.typecode) if atom.typecode else []


def _rewrap(atom: AtomType, column: Any) -> Callable[[Any], Any] | None:
    """The per-element wrapper restoring the logical atom type, if any.

    Only oid columns need one: their packed storage is raw int64, but
    callers of the logical surface expect :class:`Oid` values back.
    """
    if atom.name == "oid" and isinstance(column, array):
        return Oid
    return None


def _extend_column(column: Any, values: Sequence[Any]) -> Any:
    """Append a validated batch; returns the (possibly spilled) column."""
    if isinstance(column, array) and not isinstance(values, array):
        # the batch validator fell back to a list: it may hold ints
        # outside int64, so try an atomic repack before extending
        try:
            values = array(column.typecode, values)
        except (OverflowError, TypeError):
            column = list(column)
    column.extend(values)
    return column


def _ascending_from(column: Any, start: int) -> bool:
    """Whether rows ``start..`` keep an ascending ``column`` ascending."""
    if not isinstance(column, array):
        return False  # spilled past int64: the property is not tracked
    fresh = column[max(start - 1, 0):]  # from the last old row: the seam
    if len(fresh) >= 1024:  # a load: one column op
        values = np.frombuffer(fresh, dtype=np.int64)
        return bool((values[1:] >= values[:-1]).all())
    return all(map(le, fresh, islice(fresh, 1, None)))


def _equal_range(column: Any, value: Any) -> range:
    """Positions holding ``value`` in an ascending column (bisect)."""
    try:
        low = bisect_left(column, value)
        return range(low, bisect_right(column, value, low))
    except TypeError:  # a value no int compares with occurs nowhere
        return range(0)


def _runs(spans: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Disjoint ``[start, stop)`` spans as maximal ascending runs."""
    runs: list[tuple[int, int]] = []
    for start, stop in sorted(spans):
        if runs and runs[-1][1] == start:
            runs[-1] = (runs[-1][0], stop)
        else:
            runs.append((start, stop))
    return runs


def _cut(column: Any, runs: list[tuple[int, int]]) -> None:
    """Remove ascending disjoint position runs from ``column`` in place.

    Every surviving row behind the first run moves exactly once, as part
    of a slice (a C memmove for packed columns): one contiguous run costs
    what ``del column[a:b]`` costs, many runs still cost one pass.  The
    moves are counted in ``monetdb.rows_moved``, per column (a BAT's
    head and tail each count).
    """
    write = runs[0][0]
    stops = [start for start, _ in runs[1:]] + [len(column)]
    for (_, read), stop in zip(runs, stops):
        width = stop - read
        column[write:write + width] = column[read:stop]
        write += width
    get_telemetry().metrics.counter("monetdb.rows_moved").add(
        write - runs[0][0])
    del column[write:]


#: a hash probe saves about a quarter of what indexing one row costs
#: (measured: ~0.8 us per bisect lookup saved, ~0.2 us per row built), so
#: after rows / 4 bisect lookups the hash index has paid for itself
_PROBES_PER_BUILD = 4


class BAT:
    """A binary association table with typed, packed head and tail columns."""

    __slots__ = ("name", "head_type", "tail_type", "_head", "_tail",
                 "_head_index", "_tail_index", "_head_ascending",
                 "_tail_ascending", "_head_probes", "_tail_probes")

    def __init__(self, head_type: AtomType | str, tail_type: AtomType | str,
                 name: str = ""):
        if isinstance(head_type, str):
            head_type = atom_type(head_type)
        if isinstance(tail_type, str):
            tail_type = atom_type(tail_type)
        self.name = name
        self.head_type = head_type
        self.tail_type = tail_type
        self.clear()

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._head)

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return zip(self._head, self._tail)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "<anonymous>"
        return (f"BAT[{self.head_type.name},{self.tail_type.name}]"
                f"({label}, {len(self)} buns)")

    @property
    def head(self) -> ColumnView:
        """The head column (a read-only, zero-copy :class:`ColumnView`)."""
        return ColumnView(self._head, _rewrap(self.head_type, self._head))

    @property
    def tail(self) -> ColumnView:
        """The tail column (a read-only, zero-copy :class:`ColumnView`)."""
        return ColumnView(self._tail, _rewrap(self.tail_type, self._tail))

    def count(self) -> int:
        """Number of associations (buns) in the BAT."""
        return len(self._head)

    @property
    def head_ascending(self) -> bool:
        """Whether the head column is known to be ascending."""
        return self._head_ascending

    @property
    def tail_ascending(self) -> bool:
        """Whether the tail column is known to be ascending."""
        return self._tail_ascending

    def raw_columns(self) -> tuple[Any, Any]:
        """The physical ``(head, tail)`` storage — packed ``array``\\ s or
        lists, oids as raw ints.  Read-only: for whole-column consumers
        (persistence, the postings build) that must not pay a per-value
        wrapper."""
        return self._head, self._tail

    def storage(self) -> tuple[str, str]:
        """Physical storage classes: an array typecode or ``"list"``."""
        return (self._head.typecode if isinstance(self._head, array)
                else "list",
                self._tail.typecode if isinstance(self._tail, array)
                else "list")

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, head: Any, tail: Any) -> None:
        """Append one association, validating both atoms."""
        head = self.head_type.coerce(head)
        tail = self.tail_type.coerce(tail)
        position = len(self._head)
        if position:
            if self._head_ascending and head < self._head[-1]:
                self._head_ascending = False
            if self._tail_ascending and tail < self._tail[-1]:
                self._tail_ascending = False
        try:
            self._head.append(head)
        except OverflowError:  # int past int64: spill to a list column
            self._head = list(self._head)
            self._head.append(head)
            self._head_ascending = False
        try:
            self._tail.append(tail)
        except OverflowError:
            self._tail = list(self._tail)
            self._tail.append(tail)
            self._tail_ascending = False
        if self._head_index is not None:
            self._head_index[head].append(position)
        if self._tail_index is not None:
            self._tail_index[tail].append(position)

    def extend(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        """Append many associations."""
        for head, tail in pairs:
            self.insert(head, tail)

    def append_many(self, heads: Iterable[Any], tails: Iterable[Any]) -> int:
        """Batch append: validate and append two whole columns at once.

        The batch twin of :meth:`insert` — validation runs through the
        ADTs' ``coerce_many`` (C-speed for packable atoms) and the
        append is a single ``extend`` per column.  Nothing is appended
        unless both columns validate.  Returns the number of
        associations appended.
        """
        checked_heads = self.head_type.coerce_many(heads)
        checked_tails = self.tail_type.coerce_many(tails)
        if len(checked_heads) != len(checked_tails):
            raise BatError(
                f"append_many column length mismatch: {len(checked_heads)} "
                f"heads vs {len(checked_tails)} tails")
        start = len(self._head)
        self._head = _extend_column(self._head, checked_heads)
        self._tail = _extend_column(self._tail, checked_tails)
        if self._head_ascending:
            self._head_ascending = _ascending_from(self._head, start)
        if self._tail_ascending:
            self._tail_ascending = _ascending_from(self._tail, start)
        if self._head_index is not None:
            for position, head in enumerate(checked_heads, start):
                self._head_index[head].append(position)
        if self._tail_index is not None:
            for position, tail in enumerate(checked_tails, start):
                self._tail_index[tail].append(position)
        return len(checked_heads)

    def clear(self) -> None:
        """Drop every association (the wholesale-rebuild update path)."""
        self._head = _new_column(self.head_type)
        self._tail = _new_column(self.tail_type)
        self._drop_indexes()
        # the ascending property, tracked for int64-packed columns only
        # (an empty column is ascending; flt columns can hold NaN)
        self._head_ascending = self.head_type.typecode == "q"
        self._tail_ascending = self.tail_type.typecode == "q"

    def delete_head(self, head: Any) -> int:
        """Delete every association with the given head; return the count."""
        return self.delete_heads((head,))

    def delete_heads(self, heads: Iterable[Any]) -> int:
        """Delete every association whose head is in ``heads``.

        The doomed rows are found by bisect while the head is ascending,
        else through the head hash index — built, if it has to be, once
        for the whole batch, never once per head; the survivors then move
        as slices (:func:`_cut`).  Row order — and with it both ascending
        flags — is kept; the hash indexes hold positions, so they are
        dropped.  Returns the count deleted.
        """
        column = self._head
        if self._head_index is None and self._head_ascending:
            spans = {(found.start, found.stop) for head in heads
                     if (found := _equal_range(column, head))}
            visited = sum(stop - start for start, stop in spans)
        else:
            # rows looked at: the doomed ones, plus the whole column
            # when finding them takes building the index
            visited = len(column) if self._head_index is None else 0
            index = self._head_index or self._build_head_index()
            spans = {(position, position + 1) for head in heads
                     for position in index.get(head, ())}
            visited += len(spans)
        get_telemetry().metrics.counter("monetdb.delete_visited").add(visited)
        if not spans:
            return 0
        runs = _runs(spans)
        before = len(column)
        _cut(column, runs)
        _cut(self._tail, runs)
        self._drop_indexes()
        return before - len(column)

    def replace(self, head: Any, tail: Any) -> int:
        """Replace the tail of every association with the given head."""
        tail = self.tail_type.coerce(tail)
        positions = self._positions_by_head(head)
        for position in positions:
            try:
                self._tail[position] = tail
            except OverflowError:
                self._tail = list(self._tail)
                self._tail[position] = tail
        if positions:
            self._tail_index = None
            self._tail_ascending = False
        return len(positions)

    def _drop_indexes(self) -> None:
        self._head_index: dict[Any, list[int]] | None = None
        self._tail_index: dict[Any, list[int]] | None = None
        # bisect lookups answered since the column last had a hash index
        self._head_probes = 0
        self._tail_probes = 0

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    def _build_head_index(self) -> dict[Any, list[int]]:
        index: dict[Any, list[int]] = defaultdict(list)
        for position, value in enumerate(self._head):
            index[value].append(position)
        self._head_index = index
        return index

    def _build_tail_index(self) -> dict[Any, list[int]]:
        index: dict[Any, list[int]] = defaultdict(list)
        for position, value in enumerate(self._tail):
            index[value].append(position)
        self._tail_index = index
        return index

    def _positions_by_head(self, value: Any) -> Sequence[int]:
        """Positions of one head value, by the cheapest path the column's
        physical properties allow.

        A built hash index answers.  Without one an ascending column is
        bisected — a write-heavy relation whose index every delete drops
        never pays an O(rows) build for a handful of lookups — until the
        probes since the last drop outweigh a build
        (:data:`_PROBES_PER_BUILD`): a relation that is mostly read gets
        its hash index back.  A column without the property builds it at
        once.
        """
        index = self._head_index
        if index is None:
            if self._head_ascending:
                self._head_probes += 1
                if self._head_probes * _PROBES_PER_BUILD <= len(self._head):
                    return _equal_range(self._head, value)
            index = self._build_head_index()
        return index.get(value, ())

    def _positions_by_tail(self, value: Any) -> Sequence[int]:
        """The tail twin of :meth:`_positions_by_head`."""
        index = self._tail_index
        if index is None:
            if self._tail_ascending:
                self._tail_probes += 1
                if self._tail_probes * _PROBES_PER_BUILD <= len(self._tail):
                    return _equal_range(self._tail, value)
            index = self._build_tail_index()
        return index.get(value, ())

    def head_groups(self) -> dict[Any, list[int]]:
        """The head hash index: value -> positions, in insertion order.

        Batch kernels iterate this directly instead of probing
        :meth:`find_all` per value.  Treat it as read-only.
        """
        return self._head_index or self._build_head_index()

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def find(self, head: Any) -> Any:
        """Return the tail of the first association with the given head.

        Raises :class:`BatError` when the head is absent.  Mirrors Monet's
        ``find`` for functional BATs (head is a key).
        """
        positions = self._positions_by_head(head)
        if not positions:
            raise BatError(f"head {head!r} not found in {self.name or 'BAT'}")
        return self._tail[positions[0]]

    def find_all(self, head: Any) -> list[Any]:
        """Return the tails of all associations with the given head."""
        return [self._tail[i] for i in self._positions_by_head(head)]

    def get(self, head: Any, default: Any = None) -> Any:
        """Like :meth:`find` but returning ``default`` when absent."""
        positions = self._positions_by_head(head)
        if not positions:
            return default
        return self._tail[positions[0]]

    def get_many(self, heads: Iterable[Any], default: Any = None
                 ) -> list[Any]:
        """Batch :meth:`get`: first-match tails for a whole head column."""
        index = self._head_index or self._build_head_index()
        tail = self._tail
        return [tail[positions[0]] if (positions := index.get(head))
                else default for head in heads]

    def exists(self, head: Any) -> bool:
        """Report whether any association has the given head."""
        return bool(self._positions_by_head(head))

    def find_heads(self, tail: Any) -> list[Any]:
        """Return the heads of all associations with the given tail.

        Uses the tail hash index, so repeated reverse lookups don't pay
        for a scan each.
        """
        return [self._head[i] for i in self._positions_by_tail(tail)]

    # ------------------------------------------------------------------
    # bulk construction
    # ------------------------------------------------------------------

    @classmethod
    def from_pairs(cls, head_type: AtomType | str, tail_type: AtomType | str,
                   pairs: Iterable[tuple[Any, Any]], name: str = "") -> "BAT":
        """Build a BAT from an iterable of (head, tail) pairs."""
        bat = cls(head_type, tail_type, name=name)
        bat.extend(pairs)
        return bat

    @classmethod
    def from_columns(cls, head_type: AtomType | str,
                     tail_type: AtomType | str, heads: Iterable[Any],
                     tails: Iterable[Any], name: str = "") -> "BAT":
        """Build a BAT from two whole columns (batch-validated)."""
        bat = cls(head_type, tail_type, name=name)
        bat.append_many(heads, tails)
        return bat
