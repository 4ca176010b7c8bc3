"""The full-text relations of the paper: T, D, DT, TF and IDF.

Quoting the optimization-support section, the store transparently
integrates:

* ``T(term-oid, term)``   — the vocabulary (stemmed, stopped),
* ``D(doc-oid, doc-url)`` — the global document collection,
* ``DT(doc-oid, term-oid, pair-oid)`` — the document-term list,
* ``TF(pair-oid, tf)``    — term frequency per pair (derivable from DT),
* ``IDF(term-oid, idf)``  — with ``idf = 1/df`` (derivable from TF),
* ``POS(pair-oid, position)`` — one row per occurrence: the positions
  of each pair over the analyzed token sequence (phrase search).

T and D are BATs.  The paper fragments TF horizontally by term, so
DT, TF and POS are held clustered by term, in one form: an immutable
*base* segment (:class:`_Segment` — term oids and run starts, per pair
its oid, document slot and tf, the positions row after row) plus a
small *delta* of the adds since the base, in pair-oid order
(:class:`_Delta`).  A term's postings are its base run followed by its
delta run; pair oids ascend, so that is the order a build gives.  An
add costs the document: it appends to the delta.  A remove costs the
document too: it is a *tombstone* — the document's slot goes dead in
``live``, and its pair rows (base or delta) and its ``ir:D`` row stay,
dead, until compaction; every read masks them out.  A read merges the
live rows into a new base (*compaction*, one sort) only when the delta
has grown to the base's live size or dead slots outnumber live
documents.  A save writes the base merged with the delta, live rows
only, without installing it, so an IR part stores exactly the segment
a build makes.

IDF is *derived*, as the paper defines it: every write maintains the
document frequencies, and :meth:`IrRelations.idf` reads ``1/df`` off
that map, so no write leaves an IDF copy to refresh.  Only an IR part
stores ``ir:IDF``: a save writes it from the map, a load checks it.
Every mutation bumps the ``generation`` counter; a read publishes the
generation once (:meth:`IrRelations.postings_index`), and what is
derived from it — the packed postings, the document frequencies, the
fragment layout — hangs off that one immutable :class:`PostingsIndex`.
The generation stamp is also what the result cache keys on
(:mod:`repro.cache`).
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter
from typing import Iterable

import numpy as np

from repro.errors import CatalogError, SnapshotError
from repro.monetdb.atoms import Oid
from repro.monetdb.catalog import Catalog
from repro.monetdb.persistence import load_catalog, save_catalog
from repro.ir.text import analyze
from repro.telemetry.runtime import get_telemetry

__all__ = ["IrRelations", "PackedPostings", "PostingsIndex"]

_UNMADE = object()
#: the BATs an IR part stores (ir:IDF written from the df map); the
#: pair relations go as the segment
_STORED = ("ir:D", "ir:IDF", "ir:T")
#: the segment's plain columns in an IR part
_SEGMENT = ("terms", "starts", "pairs", "dense", "tfs", "positions")
_PREFIX = "segment:"
#: held while a postings index lays its fragments out
_LAYOUT_LOCK = threading.Lock()


def _int64(column) -> np.ndarray:
    """An oid/int column as an int64 numpy array — a copy, so no
    exported buffer pins the column against the next append."""
    return np.array(column, dtype=np.int64)


def _packed(typecode: str, values: np.ndarray) -> array:
    return array(typecode, values.astype(typecode, copy=False).tobytes())


def _view(column, dtype) -> np.ndarray:
    """A packed column as a numpy view (zero-copy; pins the column, so
    only a published, never again appended column gets one)."""
    return np.frombuffer(column, dtype=dtype) if len(column) \
        else np.empty(0, dtype=dtype)


def _run_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The rows of the runs ``[start, start + count)``, laid end to end:
    what gathers each run's values into one flat column."""
    rows = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    rows += np.arange(len(rows))
    return rows


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Where each run of ``counts`` rows starts, and the end."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _codes(names: dict[str, int], values: Iterable[str]) -> array:
    """``values`` as codes into ``names``, which grows a code per new
    name in order of first appearance."""
    return array("i", [names.setdefault(value, len(names))
                       for value in values])


def _inverse(bat) -> dict:
    """A functional BAT's tail -> head map (last row wins)."""
    heads, tails = bat.raw_columns()
    return dict(zip(tails, heads))


def _grouped(keys: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a stable argsort groups ``keys`` by — the permutation, the
    sorted keys and the start of each run of equal keys — from one
    plain sort of the unique composites ``key * n + row`` (cheaper than
    the stable sort, and the same permutation).  Keys are oids: not
    negative, and ``key * n`` stays far below 2**63."""
    width = max(len(keys), 1)
    composite = np.sort(keys * width + np.arange(len(keys)))
    ordered = composite // width
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return composite % width, ordered, np.flatnonzero(starts)


def url_segments(url: str) -> tuple[str, str]:
    """``(class, attribute)`` of an engine-indexed ``class:key:attribute``
    url; ``("", "")`` for a plain url."""
    parts = url.split(":")
    return (parts[0], parts[-1]) if len(parts) >= 3 else ("", "")


@dataclass(frozen=True, eq=False)
class _Segment:
    """The pair relations clustered by term (int64 columns): the live
    tier's base, and what an IR part stores.

    ``terms`` ascend and ``starts`` holds the first row of each term's
    run.  A row is one pair: its oid (ascending within a run), its
    document slot (``dense``; a row of ``ir:D`` once compacted) and its
    tf.  ``positions`` are the pairs' positions, ``tf`` of them per
    row, row after row — so a term's positions are one slice.
    """

    terms: np.ndarray
    starts: np.ndarray
    pairs: np.ndarray
    dense: np.ndarray
    tfs: np.ndarray
    positions: np.ndarray

    @classmethod
    def empty(cls) -> "_Segment":
        return cls(*(np.empty(0, dtype=np.int64) for _ in _SEGMENT))

    @cached_property
    def bounds(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """``(terms, rows, spans, max_tfs)`` as lists: term ``terms[i]``
        holds rows ``rows[i]:rows[i+1]`` and positions
        ``spans[i]:spans[i+1]``, its largest tf is ``max_tfs[i]`` (plain
        ints: a lookup is a bisect, not a numpy call)."""
        spans = np.zeros(len(self.terms) + 1, dtype=np.int64)
        max_tfs = np.zeros(len(self.terms), dtype=np.int64)
        if len(self.terms):
            np.cumsum(np.add.reduceat(self.tfs, self.starts), out=spans[1:])
            max_tfs = np.maximum.reduceat(self.tfs, self.starts)
        return (self.terms.tolist(),
                np.append(self.starts, len(self.pairs)).tolist(),
                spans.tolist(), max_tfs.tolist())

    def run(self, term: int) -> tuple[slice, slice, int] | None:
        """The rows, the positions and the largest tf of ``term``'s run,
        if it has one."""
        terms, rows, spans, max_tfs = self.bounds
        row = bisect_left(terms, term)
        if row == len(terms) or terms[row] != term:
            return None
        return (slice(rows[row], rows[row + 1]),
                slice(spans[row], spans[row + 1]), max_tfs[row])

    @cached_property
    def _by_slot(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows in document-slot order and where each slot's rows
        start in it: one sort per base, made on the first remove."""
        return _grouped(self.dense)[0], _bounds(np.bincount(self.dense))

    def rows_of(self, slot: int) -> np.ndarray:
        """The rows of the document in ``slot``, without a scan."""
        order, bounds = self._by_slot
        if slot + 1 >= len(bounds):
            return order[:0]
        return order[bounds[slot]:bounds[slot + 1]]

    def columns(self) -> dict[str, np.ndarray]:
        """The plain columns an IR part stores, by container name."""
        return {_PREFIX + name: getattr(self, name) for name in _SEGMENT}

    @classmethod
    def restored(cls, columns: dict[str, np.ndarray], catalog: Catalog,
                 path) -> "_Segment":
        """The segment of a loaded IR part, checked for all a build
        guarantees; every defect is a typed :class:`SnapshotError`."""
        def check(holds, message: str) -> None:
            if not holds:
                raise SnapshotError(f"{message}: {path}", path=path)

        check(sorted(catalog.names()) == list(_STORED),
              f"the IR part holds the relations {catalog.names()}, not "
              f"{list(_STORED)}")
        check(sorted(columns) == sorted(_PREFIX + name for name in _SEGMENT),
              f"the IR part's plain columns are {sorted(columns)}, not "
              "the segment's")
        segment = cls(**{name: columns[_PREFIX + name] for name in _SEGMENT})
        terms, starts, pairs = segment.terms, segment.starts, segment.pairs
        check(len(starts) == len(terms) and len(pairs) == len(segment.dense)
              == len(segment.tfs), "the segment's columns disagree in length")
        check(not len(terms) and not len(pairs) or len(terms)
              and starts[0] == 0 and starts[-1] < len(pairs)
              and (starts[1:] > starts[:-1]).all(),
              f"the segment's run starts do not ascend from 0 inside its "
              f"{len(pairs)} pairs")
        check((terms[1:] > terms[:-1]).all(), "the segment names a term "
              "twice")
        check(np.isin(terms, _int64(catalog.get("ir:T").raw_columns()[0]))
              .all(), "the segment names a term missing from ir:T")
        check(not len(pairs) or segment.dense.max()
              < len(catalog.get("ir:D")),
              "the segment names a document past the end of ir:D")
        check(not len(pairs) or segment.tfs.min() >= 1,
              "the segment holds a tf below 1")
        check(segment.tfs.sum() == len(segment.positions),
              f"the segment's position counts do not add up to its "
              f"{len(segment.positions)} positions")
        ascends = pairs[1:] > pairs[:-1]
        ascends[starts[1:] - 1] = True  # a run may start below the last
        check(ascends.all(), "a run of the segment has pair oids that do "
              "not ascend")
        check(not len(pairs) or pairs.max() < catalog.oids.peek(),
              "the segment holds a pair oid at or past the next oid")
        ordered = np.sort(pairs)
        check((ordered[1:] > ordered[:-1]).all(),
              "the segment holds a pair oid twice")
        return segment


class _Delta:
    """The adds since the base, one row per pair in pair-oid order.

    The columns only grow (a document's rows are appended together, and
    a removed document's rows stay, dead), so a row never moves and a
    published generation reads a consistent prefix: the rows below the
    count it was published with, masked by its ``live``.  ``by_term``
    (term -> its rows, ascending) finds a term's run without a scan; it
    is brought up to date on publishing (:meth:`fold`), so a bulk load,
    which compacts on its first read, never keeps one.  ``docs`` maps
    the slot of each document added since the base and not removed to
    its first row and pair count; ``held`` counts those documents'
    pairs.
    """

    def __init__(self):
        self.pairs, self.slots, self.terms, self.tfs, self.starts, \
            self.positions = (array("q") for _ in range(6))
        self.by_term: dict[int, list[int]] = {}
        self.folded = 0  # rows already in ``by_term``
        self.docs: dict[int, tuple[int, int]] = {}
        self.held = 0

    def __len__(self) -> int:
        return self.held

    def add(self, slot: int, pairs: list, terms: list,
            runs: list[list[int]]) -> None:
        self.docs[slot] = (len(self.pairs), len(pairs))
        self.held += len(pairs)
        start = len(self.positions)
        for run in runs:
            self.starts.append(start)
            start += len(run)
        self.pairs.extend(pairs)
        self.slots.extend([slot] * len(pairs))
        self.terms.extend(terms)
        self.tfs.extend(map(len, runs))
        self.positions.extend(chain.from_iterable(runs))

    def fold(self) -> None:
        """Enter the rows added since the last fold into ``by_term``
        (a document removed before its fold stays out)."""
        by_term, docs, slots = self.by_term, self.docs, self.slots
        for row in range(self.folded, len(self.pairs)):
            if slots[row] in docs:
                by_term.setdefault(self.terms[row], []).append(row)
        self.folded = len(self.pairs)

    def rows_of(self, slot: int) -> slice:
        """The rows of the document added in ``slot``."""
        first, count = self.docs[slot]
        return slice(first, first + count)

    def gather(self, rows: list[int]) -> tuple[np.ndarray, ...]:
        """``(slots, tfs, positions)`` of ``rows``, as int64 columns."""
        pick = itemgetter(*rows) if len(rows) > 1 \
            else lambda column: (column[rows[0]],)
        tfs = pick(self.tfs)
        positions = array("q")
        for start, tf in zip(pick(self.starts), tfs):
            positions += self.positions[start:start + tf]
        return (np.array(pick(self.slots), dtype=np.int64),
                np.array(tfs, dtype=np.int64),
                np.array(positions, dtype=np.int64))


@dataclass(eq=False)
class PackedPostings:
    """One term's postings as packed parallel columns.

    ``dense`` holds the postings' positions in the owning index's
    ``doc_ids`` universe (int64, posting order = pair-oid order);
    ``tfs`` are the integer term frequencies and ``tf_weights`` the same
    values pre-widened to float64 for the scoring kernels.  Each doc
    occurs at most once per term (one DT pair per document-term), which
    is what lets the kernels use unordered scatter-adds and stay
    bit-identical to the sequential scalar accumulation.  ``positions``
    holds every posting's ``tf`` occurrence positions, posting after
    posting.  A made object is immutable and shared between index
    generations.
    """

    dense: np.ndarray
    tfs: np.ndarray
    tf_weights: np.ndarray
    max_tf: int = 0
    positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    # the per-posting position offsets, made on first touch and shared
    # by every reader
    _offsets: object = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.dense)

    def __eq__(self, other) -> bool:
        """Equal postings: equal column values (views or owned), max tf
        and positions."""
        if not isinstance(other, PackedPostings):
            return NotImplemented
        return self.max_tf == other.max_tf \
            and all(map(np.array_equal, self._columns(), other._columns())) \
            and all(map(np.array_equal, self.position_columns(),
                        other.position_columns()))

    def _columns(self) -> tuple:
        return self.dense, self.tfs, self.tf_weights

    def position_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The occurrence positions as columns: one flat int64 column
        and per-posting offsets, so posting ``row`` holds
        ``flat[offsets[row]:offsets[row + 1]]``."""
        offsets = self._offsets
        if offsets is None:
            offsets = np.zeros(len(self.tfs) + 1, dtype=np.int64)
            np.cumsum(self.tfs, out=offsets[1:])
            self._offsets = offsets
        return np.asarray(self.positions, dtype=np.int64), offsets

    def dense_view(self) -> np.ndarray:
        """The dense-position column as an int64 numpy view (zero-copy)."""
        return _view(self.dense, np.int64)

    def weights_view(self) -> np.ndarray:
        """The float64 tf column as a numpy view (zero-copy)."""
        return _view(self.tf_weights, np.float64)


def _remade(previous: dict[int, PackedPostings], delta: _Delta, since: int,
            rows: int, live: np.ndarray) -> dict[int, PackedPostings]:
    """The postings of the terms in ``previous`` (term -> its postings
    as an earlier generation made them, over the delta's first ``since``
    rows), re-made in one pass: the delta rows ``since:rows`` of all
    these terms and of live documents are found and grouped by term in
    a handful of array operations, then each term keeps its rows whose
    slot is still ``live`` and appends its new ones, into columns of its
    own (so no batch stays pinned).  A term left with no rows has no
    postings."""
    terms = sorted(previous)
    keys = np.array(terms, dtype=np.int64)
    added = np.frombuffer(delta.terms[since:rows], np.int64)
    slots = np.frombuffer(delta.slots[since:rows], np.int64)
    at = np.minimum(np.searchsorted(keys, added), len(keys) - 1)
    new = np.flatnonzero((keys[at] == added) & live[slots])
    new = new[np.argsort(at[new], kind="stable")]  # by term, in pair order
    first = delta.starts[since] if since < rows else len(delta.positions)
    new_slots = slots[new]
    new_tfs = np.frombuffer(delta.tfs[since:rows], np.int64)[new]
    new_positions = np.frombuffer(delta.positions[first:], np.int64)[
        _run_rows(np.frombuffer(delta.starts[since:rows], np.int64)[new]
                  - first, new_tfs)]
    bounds = _bounds(np.bincount(at[new], minlength=len(terms)))
    spans = _bounds(new_tfs)[bounds].tolist()
    bounds = bounds.tolist()
    max_tfs = np.zeros(len(terms), dtype=np.int64)
    np.maximum.at(max_tfs, at[new], new_tfs)
    max_tfs = max_tfs.tolist()
    fresh = {}
    for number, term in enumerate(terms):
        packed = previous[term]
        dense, tfs, positions = packed.dense, packed.tfs, packed.positions
        max_tf = packed.max_tf
        keep = live[dense]
        if not keep.all():
            positions = positions[np.repeat(keep, tfs)]
            dense, tfs = dense[keep], tfs[keep]
            max_tf = int(tfs.max(initial=0))
        start, stop = bounds[number], bounds[number + 1]
        if start < stop:
            span = slice(spans[number], spans[number + 1])
            dense = np.concatenate((dense, new_slots[start:stop]))
            tfs = np.concatenate((tfs, new_tfs[start:stop]))
            positions = np.concatenate((positions, new_positions[span]))
            max_tf = max(max_tf, max_tfs[number])
        elif dense is packed.dense:  # unchanged: still columns of its own
            dense, tfs, positions = dense.copy(), tfs.copy(), positions.copy()
        if len(dense):
            fresh[term] = PackedPostings(dense, tfs, tfs.astype(np.float64),
                                         max_tf, positions)
    return fresh


class TermPostings(Mapping):
    """term oid -> :class:`PackedPostings` of one generation, made on a
    term's first lookup.

    A term's postings are its run of the ``base`` segment followed by
    its run of the ``delta`` as published — the rows and the term index
    the delta held then — each masked by the generation's ``live``.  A
    lookup memoizes them with ``setdefault``, so concurrent first
    lookups share one object: in ``views`` when they are zero-copy
    views of the base (no dead row, no delta run), else in ``owned``.
    The base stays the same object until a compaction, so the next
    generation starts from this one's made terms, with those written
    since re-made (:func:`_remade`).  ``size`` is the number of terms
    holding a posting.
    """

    def __init__(self, base: _Segment, delta: _Delta, live: np.ndarray,
                 size: int, views: dict[int, PackedPostings],
                 owned: dict[int, PackedPostings]):
        self.base, self._delta, self._live = base, delta, live
        self._by_term, self._rows = delta.by_term, len(delta.pairs)
        self._size = size
        self.views, self.owned = views, owned

    def __getitem__(self, term: int) -> PackedPostings:
        packed = self.views.get(term, _UNMADE)
        if packed is _UNMADE:
            packed = self.owned.get(term, _UNMADE)
            if packed is _UNMADE:
                packed = self._make(term)
        return packed

    def __contains__(self, term) -> bool:
        if term in self.views or term in self.owned:
            return True
        run = self.base.run(term)
        if run is not None and self._live[self.base.dense[run[0]]].any():
            return True
        return bool(self._delta_rows(term))

    def __iter__(self):
        """The terms in order of first appearance (first live pair
        oid): the base's, then those only the delta holds."""
        base = self.base
        rows = np.flatnonzero(self._live[base.dense])
        runs, first = np.unique(np.searchsorted(base.starts, rows, "right")
                                - 1, return_index=True)
        based = base.terms[runs]
        yield from based[np.argsort(base.pairs[rows[first]])].tolist()
        based = set(based.tolist())
        own = sorted((held[0], term) for term in list(self._by_term)
                     if term not in based
                     and (held := self._delta_rows(term)))
        yield from (term for _, term in own)

    def __len__(self) -> int:
        return self._size

    def _delta_rows(self, term: int) -> list[int]:
        """``term``'s delta rows of this generation with a live slot."""
        held = self._by_term.get(term, ())
        slots, live = self._delta.slots, self._live
        return [row for row in held[:bisect_left(held, self._rows)]
                if live[slots[row]]]

    def _make(self, term: int) -> PackedPostings:
        base, live = self.base, self._live
        made, parts, max_tf = self.views, [], 0
        run = base.run(term)
        if run is not None:
            rows, spans, max_tf = run
            dense, tfs = base.dense[rows], base.tfs[rows]
            positions = base.positions[spans]
            keep = live[dense]
            if not keep.all():
                made = self.owned
                positions = positions[np.repeat(keep, tfs)]
                dense, tfs = dense[keep], tfs[keep]
                max_tf = int(tfs.max(initial=0))
            if len(dense):
                parts.append((dense, tfs, positions))
        rows = self._delta_rows(term)
        if rows:
            made = self.owned
            parts.append(self._delta.gather(rows))
            max_tf = max(max_tf, int(parts[-1][1].max()))
        if not parts:
            raise KeyError(term)
        dense, tfs, positions = parts[0] if len(parts) == 1 \
            else map(np.concatenate, zip(*parts))
        get_telemetry().metrics.counter("ir.postings_materialized").add(1)
        return made.setdefault(term, PackedPostings(
            dense, tfs, tfs.astype(np.float64), max_tf, positions))


@dataclass
class PostingsIndex:
    """The TF access path of one generation: term -> packed postings.

    ``by_term`` makes a term's postings on first lookup
    (:class:`TermPostings`; the paper's fragmentation then orders these
    terms by descending idf).  The index also carries the dense document
    universe (``doc_ids``: dense position -> doc oid) the scoring
    kernels accumulate over, and the per-slot columns schema-2 queries
    match, facet and answer from: ``urls``, ``live``, and the url segments
    (:func:`url_segments`) as ``class_codes`` / ``field_codes`` into the
    ``class_names`` / ``field_names`` tables (name -> code, in order of
    first appearance).  ``df`` is the generation's document frequencies
    (term oid -> df, in the order ``ir:IDF`` stores them), from which
    :meth:`fragments` lays the terms out.

    ``doc_ids`` may hold *dead slots*: a removed document keeps its
    dense position (no posting points at it any more, ``live`` is 0) so
    surviving ``dense`` columns stay valid until compaction.
    ``doc_dense`` is keyed by the **live** documents only.  An index is
    never mutated once published: readers holding one keep a consistent
    snapshot, and what is derived from it is memoized on it.
    """

    generation: int
    by_term: Mapping[int, PackedPostings] = field(default_factory=dict)
    df: dict[int, int] = field(default_factory=dict)
    doc_ids: array = field(default_factory=lambda: array("q"))
    doc_dense: dict[int, int] = field(default_factory=dict)
    urls: list[str] = field(default_factory=list)
    live: array = field(default_factory=lambda: array("b"))
    class_codes: array = field(default_factory=lambda: array("i"))
    field_codes: array = field(default_factory=lambda: array("i"))
    class_names: dict[str, int] = field(default_factory=dict)
    field_names: dict[str, int] = field(default_factory=dict)
    # fragment count -> the layout made over this generation
    _layouts: dict = field(default_factory=dict, repr=False, compare=False)

    def fragments(self, count: int) -> "FragmentSet":
        """The idf-ordered layout of ``count`` fragments over this
        generation (:func:`~repro.ir.fragmentation.fragment_index`),
        made once: an index never changes, so the memo needs no stamp.
        Double-checked under a lock, so concurrent first readers make
        one layout."""
        layout = self._layouts.get(count)
        if layout is None:
            from repro.ir import fragmentation  # it imports this module
            with _LAYOUT_LOCK:
                layout = self._layouts.get(count)
                if layout is None:
                    layout = self._layouts[count] = \
                        fragmentation.fragment_index(self, count)
        return layout

    def live_mask(self) -> np.ndarray:
        """``live`` as a bool column over the slots (zero-copy)."""
        return _view(self.live, bool)

    @cached_property
    def url_ranks(self) -> np.ndarray:
        """Each slot's rank in the order of ``urls`` (int64): the column
        a url-sorted page orders on, made on first use (an index never
        changes).  Live urls are distinct; a dead slot may repeat one."""
        ranks = np.empty(len(self.urls), dtype=np.int64)
        ranks[sorted(range(len(self.urls)), key=self.urls.__getitem__)] \
            = np.arange(len(self.urls))
        return ranks

    def segment_codes(self, segment: str
                      ) -> tuple[np.ndarray, dict[str, int]]:
        """One url segment's per-slot codes (zero-copy) and the name
        table they index; ``segment`` is ``"class"`` or ``"field"``."""
        if segment == "class":
            return _view(self.class_codes, np.int32), self.class_names
        return _view(self.field_codes, np.int32), self.field_names


class IrRelations:
    """The five IR relations over one catalog, with incremental updates.

    ``segment`` is the base the pairs start from — a loaded IR part's
    (:meth:`load`), whose dense numbers are rows of ``ir:D`` and whose
    terms must be exactly those of the catalog's ``ir:IDF``, each with
    the idf ``1/df`` of its run length (a :class:`CatalogError` if not:
    the dfs are read in ``ir:IDF``'s row order).  ``ir:IDF`` is checked
    and dropped from the catalog: :meth:`idf` reads the df map.
    """

    def __init__(self, catalog: Catalog | None = None,
                 segment: _Segment | None = None):
        self.catalog = catalog or Catalog()
        self.T = self.catalog.ensure("ir:T", "oid", "str")
        self.D = self.catalog.ensure("ir:D", "oid", "url")
        self._base = segment if segment is not None else _Segment.empty()
        self._delta = _Delta()
        self._term_oids: dict[str, Oid] = _inverse(self.T)
        self._doc_oids: dict[str, Oid] = _inverse(self.D)
        # (value, term oid) of the str.isdecimal terms — what float
        # accepts ('١٩٩٧' is 1997, '²' no number) — sorted for bisection
        self._numbers: list[tuple[float, Oid]] = sorted(
            (float(term), oid) for term, oid in self._term_oids.items()
            if term.isdecimal())
        # term oid -> document frequency, maintained by every write (a
        # base has it as run lengths, in IDF's row order); a term no
        # document holds any more has no entry
        stored = self.catalog.get_or_none("ir:IDF")
        if stored is not None:
            self.catalog.drop("ir:IDF")
        heads, tails = stored.raw_columns() \
            if stored is not None and segment is not None else ((), ())
        terms = _int64(heads)
        if not np.array_equal(np.sort(terms), self._base.terms):
            raise CatalogError("ir:IDF does not name exactly the "
                               "segment's terms")
        counts = np.diff(self._base.starts, append=len(self._base.pairs))[
            np.searchsorted(self._base.terms, terms)]
        if not np.array_equal(np.asarray(tails, dtype=np.float64),
                              1.0 / counts):
            raise CatalogError("ir:IDF is not 1/df of the segment's runs")
        self._df: dict[Oid, int] = dict(zip(terms.tolist(), counts.tolist()))
        self._renumber()
        # bumped on every mutation: the published index and the result
        # cache are stamped with it
        self.generation = 0
        self._postings_index: PostingsIndex | None = None
        self._postings_lock = threading.Lock()
        # the terms written since ``_postings_index`` was published
        self._touched: set[Oid] = set()
        self.collection_length = int(self._base.tfs.sum())
        self._dead_pairs = 0  # base rows whose document was removed

    def _renumber(self) -> None:
        """The document slots afresh: one per row of ``ir:D``, in
        row order — the numbering a compacted base's ``dense`` uses.
        Slot and ``ir:D`` row stay one until the next compaction: an
        add appends to both, and a remove leaves its row, dead."""
        doc_column, urls = self.D.raw_columns()
        self._doc_ids = array("q", doc_column)
        self._slot_of = dict(zip(self._doc_ids, range(len(self._doc_ids))))
        self._urls = list(urls)
        self._live = array("b", [1]) * len(urls)
        self._class_names: dict[str, int] = {}
        self._field_names: dict[str, int] = {}
        segments = list(map(url_segments, urls))
        self._class_codes = _codes(self._class_names,
                                   (cls for cls, _ in segments))
        self._field_codes = _codes(self._field_names,
                                   (fld for _, fld in segments))

    # -- persistence -----------------------------------------------------

    def save(self, path) -> int:
        """Write the IR part, one column container: ``ir:T``, ``ir:D``
        and ``ir:IDF`` as BATs (:meth:`_stored`), the pair relations as
        one segment — the base merged with the delta (:meth:`_merged`)
        if a delta or a dead slot is left.  The merge is written, not
        installed: the base, the delta, the slots and the published
        index stay, so a generation keeps one slot numbering.  Returns
        the value count to stamp."""
        with self._postings_lock:
            dead = len(self._slot_of) < len(self._doc_ids)
            base = self._merged() if len(self._delta) or dead \
                else self._base
            catalog = self._stored()
        return save_catalog(catalog, path, names=_STORED,
                            columns=base.columns())

    def _stored(self) -> Catalog:
        """The stored relations as a compaction would leave them: a
        catalog sharing the oid sequence, ``ir:D`` without its dead rows
        (a row is its slot), ``ir:T`` as it is and ``ir:IDF`` written
        from the df map (``idf = 1/df``, in the map's order)."""
        stored = Catalog()
        stored.oids = self.catalog.oids
        for bat in (self.D, self.T):
            heads, tails = bat.raw_columns()
            if bat is self.D and len(self._slot_of) < len(self._doc_ids):
                heads, tails = (list(compress(column, self._live))
                                for column in (heads, tails))
            stored.create(bat.name, bat.head_type, bat.tail_type) \
                .append_many(heads, tails)
        df = self._df
        counts = np.fromiter(df.values(), np.int64, len(df))
        stored.create("ir:IDF", "oid", "flt").append_many(
            array("q", df), _packed("d", 1.0 / counts))
        return stored

    @classmethod
    def load(cls, path, generation: int, *, oid_start: int = 0,
             oid_stride: int = 1) -> "IrRelations":
        """Restore an IR part stamped with its manifest's
        ``generation``; ``oid_start``/``oid_stride`` restore a cluster
        node's strided oid sequence.  The segment is checked and
        becomes the base: no build.  ``ir:IDF`` is checked against the
        segment's runs, then dropped."""
        catalog, columns = load_catalog(path, oid_start=oid_start,
                                        oid_stride=oid_stride)
        segment = _Segment.restored(columns, catalog, path)
        rows = catalog.total_buns() + len(segment.pairs) \
            + len(segment.positions)
        try:
            relations = cls(catalog, segment)
        except CatalogError as error:
            raise SnapshotError(f"{error}: {path}", path=path) from None
        get_telemetry().metrics.counter("ir.rows_loaded").add(rows)
        relations.generation = generation
        return relations

    # -- vocabulary ------------------------------------------------------

    def term_oid(self, term: str) -> Oid | None:
        """Oid of a (normalised) term, or ``None`` when out of vocabulary."""
        return self._term_oids.get(term)

    def vocabulary_size(self) -> int:
        return len(self._term_oids)

    def numeric_terms(self, low: float | None,
                      high: float | None) -> list[Oid]:
        """Oids of the numeric terms in ``[low, high]`` (``None``: open)."""
        numbers = self._numbers
        start = 0 if low is None else bisect_left(numbers, (low,))
        stop = len(numbers) if high is None \
            else bisect_right(numbers, (high, math.inf))
        return [oid for _, oid in numbers[start:stop]]

    # -- documents -----------------------------------------------------

    def doc_oid(self, url: str) -> Oid | None:
        """Oid of a document url, or ``None`` when unknown."""
        return self._doc_oids.get(url)

    def doc_url(self, oid: Oid) -> str:
        return self.D.find(oid)

    def document_count(self) -> int:
        return len(self._doc_oids)

    # -- indexing ---------------------------------------------------------

    def add_document(self, url: str, text: str) -> Oid:
        """Index one document body.

        ``ir:D`` and ``ir:T`` take one batched append each, the pairs
        go to the delta (:meth:`_append`).  Oids are drawn in one fixed
        order — the document's, then per term in order of first
        occurrence the term's (if new) and its pair's — which snapshot
        bytes and every oid tie-break depend on.
        """
        if url in self._doc_oids:
            raise CatalogError(f"document already indexed: {url!r}")
        occurrences: dict[str, list[int]] = {}
        for position, term in enumerate(analyze(text)):
            occurrences.setdefault(term, []).append(position)
        new_oid = self.catalog.oids.new
        doc = new_oid()
        self.D.append_many((doc,), (url,))
        self._doc_oids[url] = doc
        term_oids = self._term_oids
        new_terms: list[str] = []
        new_term_oids: list[Oid] = []
        terms: list[Oid] = []
        pairs: list[Oid] = []
        for term in occurrences:
            term_oid = term_oids.get(term)
            if term_oid is None:
                term_oid = term_oids[term] = new_oid()
                new_terms.append(term)
                new_term_oids.append(term_oid)
            terms.append(term_oid)
            pairs.append(new_oid())
        self.T.append_many(new_term_oids, new_terms)
        for term, term_oid in zip(new_terms, new_term_oids):
            if term.isdecimal():
                insort(self._numbers, (float(term), term_oid))
        self._append(doc, url, terms, pairs, list(occurrences.values()))
        return doc

    def _append(self, doc: Oid, url: str, terms: list[Oid],
                pairs: list[Oid], runs: list[list[int]]) -> None:
        """Give an indexed document its slot and its pairs — one per
        term, with its run of positions — a place in the delta."""
        slot = self._slot_of[doc] = len(self._doc_ids)
        self._doc_ids.append(doc)
        self._urls.append(url)
        self._live.append(1)
        cls, fld = url_segments(url)
        self._class_codes += _codes(self._class_names, [cls])
        self._field_codes += _codes(self._field_names, [fld])
        self._delta.add(slot, pairs, terms, runs)
        df = self._df
        for term_oid in terms:
            df[term_oid] = df.get(term_oid, 0) + 1
        self._touched.update(terms)
        self.collection_length += sum(map(len, runs))
        self.generation += 1

    def add_documents(self, documents: Iterable[tuple[str, str]]) -> None:
        """Index many (url, text) documents."""
        for url, text in documents:
            self.add_document(url, text)

    def remove_document(self, url: str) -> None:
        """Un-index one document (source data changed or disappeared).

        A tombstone: the document's slot goes dead, and its pair rows —
        in the delta, or in the base, found through the base's slot
        index (:meth:`_Segment.rows_of`) — and its ``ir:D`` row stay
        until compaction, so a remove costs the document, not the
        collection.  All-or-nothing: the rows and every new total are
        found before the first change, so a step that raises leaves the
        index as it was.
        """
        doc = self._doc_oids.get(url)
        if doc is None:
            raise CatalogError(f"document not indexed: {url!r}")
        base, delta = self._base, self._delta
        slot = self._slot_of[doc]
        added = slot in delta.docs
        if added:
            rows = delta.rows_of(slot)
            terms = delta.terms[rows].tolist()
            length = sum(delta.tfs[rows])
        else:
            rows = base.rows_of(slot)
            terms = base.terms[np.searchsorted(base.starts, rows, "right")
                               - 1].tolist()
            length = int(base.tfs[rows].sum())
        if added:
            del delta.docs[slot]
            delta.held -= len(terms)
        else:
            self._dead_pairs += len(terms)
        del self._doc_oids[url]
        self._live[slot] = 0
        del self._slot_of[doc]
        df = self._df
        for term in terms:
            if df[term] == 1:
                del df[term]
            else:
                df[term] -= 1
        self._touched.update(terms)
        self.collection_length -= length
        self.generation += 1

    def refresh_idf(self) -> None:
        """Publish the current generation (:meth:`postings_index`); a
        no-op when it is published.  IDF itself needs no refresh:
        :meth:`idf` reads the maintained df map."""
        self.postings_index()

    # -- per-term access (used by ranking and fragmentation) -----------

    def idf(self, term_oid: Oid) -> float:
        """``1/df`` of a term, as the paper defines it (0.0 when the
        term occurs nowhere), straight off the maintained df map."""
        df = self._df.get(term_oid)
        return 1.0 / df if df else 0.0

    def postings_index(self) -> PostingsIndex:
        """The packed postings access path, memoized per generation.

        Publishing a generation copies the slot columns and shares the
        base and the delta (its rows so far); it keeps the previous
        generation's made terms — none after a compaction — and re-makes
        those written since in one batched pass (:func:`_remade`).
        Before publishing, the read **compacts** (:meth:`_compact`)
        when the delta has grown to the base's live size (EXPERIMENTS
        E32 measures that share) — a bulk load's first read, whose base
        is empty, pays exactly this, once — or when dead slots
        outnumber live documents (:meth:`_compaction_due`).
        ``ir.publish_rows`` counts the rows a publish copies: one per
        slot, plus the re-made pairs.  Double-checked under a lock, so
        concurrent readers of a new generation publish it once.
        """
        index = self._postings_index
        if index is not None and index.generation == self.generation:
            return index
        with self._postings_lock:
            generation = self.generation
            index = self._postings_index
            if index is not None and index.generation == generation:
                return index
            if self._compaction_due():
                self._compact()
                index = None  # its slots are renumbered: keep no term
            index = self._postings_index = self._publish(generation, index)
        return index

    def _compaction_due(self) -> bool:
        """The delta-or-compact rule: the delta has grown to the base's
        live size, or dead slots outnumber live documents."""
        live = len(self._slot_of)
        delta = len(self._delta)
        return bool(delta) and delta >= len(self._base.pairs) \
            - self._dead_pairs or len(self._doc_ids) - live > live

    def compact_if_due(self) -> None:
        """Apply the delta-or-compact rule now, not on the next
        publish: for relations no read publishes (a coordinator's
        central copy), so that writes alone keep them bounded.  A
        compaction renumbers the slots, so the published index goes
        with it and the next read publishes afresh."""
        with self._postings_lock:
            if self._compaction_due():
                self._compact()
                self._postings_index = None

    def _publish(self, generation: int,
                 previous: PostingsIndex | None) -> PostingsIndex:
        base, delta = self._base, self._delta
        touched, self._touched = self._touched, set()
        delta.fold()
        live = self._live[:]
        mask = _view(live, bool)
        views, owned = {}, {}
        remade = 0
        if previous is not None:  # no compaction since: base and slots hold
            made = previous.by_term
            views, owned = dict(made.views), dict(made.owned)
            stale = {}
            for term in touched:
                for terms in (views, owned):
                    packed = terms.pop(term, None)
                    if packed is not None:
                        stale[term] = packed
            if stale:
                # what readers had made and a write touched is made again
                # now: the read that must see a write pays for it, not
                # the reads after it (EXPERIMENTS E32)
                fresh = _remade(stale, delta, made._rows, len(delta.pairs),
                                mask)
                owned.update(fresh)
                remade = sum(map(len, fresh.values()))
                get_telemetry().metrics.counter(
                    "ir.postings_materialized").add(len(fresh))
        doc_ids = self._doc_ids[:]
        get_telemetry().metrics.counter("ir.publish_rows").add(
            len(doc_ids) + remade)
        df = dict(self._df)
        by_term = TermPostings(base, delta, mask, len(df), views, owned)
        return PostingsIndex(
            generation=generation, by_term=by_term, df=df, doc_ids=doc_ids,
            doc_dense=dict(self._slot_of), urls=self._urls[:],
            live=live, class_codes=self._class_codes[:],
            field_codes=self._field_codes[:],
            class_names=dict(self._class_names),
            field_names=dict(self._field_names))

    def _merged(self) -> _Segment:
        """The live rows of the base and the delta as one segment over
        the live rows of ``ir:D``: one sort (:func:`_grouped`) of the
        terms, row for row, the base's then the delta's, clusters the
        pairs by term, base run before delta run, so in pair order
        within a term."""
        base, delta = self._base, self._delta
        live = _int64(self._live)
        kept = np.flatnonzero(live[base.dense]) if self._dead_pairs \
            else slice(None)
        held = np.flatnonzero(live[_int64(delta.slots)])
        pairs, slots, terms, tfs, starts = (_int64(column)[held] for column in (
            delta.pairs, delta.slots, delta.terms, delta.tfs, delta.starts))
        order, terms, runs = _grouped(np.concatenate((np.repeat(
            base.terms, np.diff(base.starts, append=len(base.pairs)))[kept],
            terms)))
        tfs = np.concatenate((base.tfs[kept], tfs))[order]
        pos_starts = np.concatenate(((np.cumsum(base.tfs) - base.tfs)[kept],
                                     starts + len(base.positions)))[order]
        positions = np.concatenate((base.positions, _int64(
            delta.positions)))[_run_rows(pos_starts, tfs)]
        rows = np.cumsum(live) - 1  # slot -> row of ir:D
        return _Segment(terms[runs], runs,
                        np.concatenate((base.pairs[kept], pairs))[order],
                        rows[np.concatenate((base.dense[kept], slots))[order]],
                        tfs, positions)

    def _compact(self) -> None:
        """Merge the live rows into a new base, drop ``ir:D``'s dead rows
        and renumber the slots to ``ir:D``'s rows (a reader holds the
        postings lock, a writer the relations).  ``ir:D`` changes in
        place: a compaction runs only on a generation's first read,
        and every other reader of that generation waits on the lock in
        :meth:`postings_index` before it reads ``ir:D``."""
        telemetry = get_telemetry()
        with telemetry.tracer.span("ir.postings_build",
                                   delta=len(self._delta),
                                   base=len(self._base.pairs)) as span:
            self._base = self._merged()
            self._delta = _Delta()
            self._dead_pairs = 0
            dead = [doc for doc, alive in zip(self._doc_ids, self._live)
                    if not alive]
            if dead:
                self.D.delete_heads(dead)
            self._renumber()
            span.set_attributes(terms=len(self._base.terms))
        telemetry.metrics.counter("ir.postings_rebuilds").add(1)

    def stats(self) -> dict[str, int]:
        return {
            "documents": self.document_count(),
            "terms": self.vocabulary_size(),
            "pairs": len(self._base.pairs) - self._dead_pairs
            + len(self._delta),
            "collection_length": self.collection_length,
            "generation": self.generation,
        }
