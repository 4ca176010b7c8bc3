"""The full-text relations of the paper: T, D, DT, TF and IDF.

Quoting the optimization-support section, the store transparently
integrates:

* ``T(term-oid, term)``   — the vocabulary (stemmed, stopped),
* ``D(doc-oid, doc-url)`` — the global document collection,
* ``DT(doc-oid, term-oid, pair-oid)`` — the document-term list,
* ``TF(pair-oid, tf)``    — term frequency per pair (derivable from DT),
* ``IDF(term-oid, idf)``  — with ``idf = 1/df`` (derivable from TF),
* ``POS(pair-oid, position)`` — one row per occurrence: the positions
  of each pair over the analyzed token sequence (phrase search), an
  integer relation whose pair-oid head ascends in runs of ``tf`` rows.

BATs are binary, so the ternary DT is decomposed Monet-style into two
BATs sharing the pair-oid head (``DT_doc`` and ``DT_term``).  The IDF
relation is maintained *lazily*: documents are added eagerly to
T/D/DT/TF while every mutation only bumps the ``generation`` counter;
:meth:`refresh_idf` recomputes IDF at most once per generation, on the
first read that needs it.  This generalises the paper's batched refresh
("started every time the storage manager has parsed a certain number of
document bodies") — bulk population costs O(docs) instead of
O(docs × vocabulary), and a query-time refresh is a no-op unless the
index actually changed.  The generation stamp is also what the result
cache keys on (:mod:`repro.cache`).

A write costs the document, not the corpus.  The pair-oid BATs are
append-only with ascending oids, so un-indexing a document is four
slice deletes (:meth:`~repro.monetdb.bat.BAT.delete_heads`); the
document frequencies IDF derives from are a maintained map; and while a
:class:`PostingsIndex` is built, every write is journalled so the next
read patches that index copy-on-write — while a patch is cheaper than a
build — instead of rebuilding it (lifecycle in
:meth:`IrRelations.postings_index`).

The paper fragments TF horizontally by term, so on disk the pair
relations are stored clustered by term: the IR part holds ``ir:T``,
``ir:D`` and ``ir:IDF`` as BATs and DT/TF/POS as the *segment* a build
sorts them into (:class:`_Segment`), plain columns of the container.  A
load checks the segment and installs the postings index over it with no
build; the four pair BATs are derived from it only when something needs
them — a write, or a reader of the BATs themselves — and until then a
save writes the loaded segment back unchanged.
"""

from __future__ import annotations

import copy
import math
import threading
from array import array
from bisect import bisect_left, bisect_right, insort
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from repro.errors import CatalogError, SnapshotError
from repro.monetdb.atoms import Oid
from repro.monetdb.catalog import Catalog
from repro.monetdb.persistence import load_catalog, save_catalog
from repro.ir.text import analyze
from repro.telemetry.runtime import get_telemetry

__all__ = ["IrRelations", "PackedPostings", "PostingsIndex"]

_ADD, _REMOVE = "add", "remove"
_UNMADE = object()
#: the pair relations: attribute -> (BAT name, head atom, tail atom)
_PAIR_RELATIONS = {"DT_doc": ("ir:DT:doc", "oid", "oid"),
                   "DT_term": ("ir:DT:term", "oid", "oid"),
                   "TF": ("ir:TF", "oid", "int"),
                   "POS": ("ir:POS", "oid", "int")}
#: the BATs an IR part stores; the pair relations go as the segment
_STORED = ("ir:D", "ir:IDF", "ir:T")
#: the segment's plain columns in an IR part; ``counts`` only when it
#: differs from ``tfs`` (pre-v2 pairs)
_SEGMENT = ("terms", "starts", "pairs", "dense", "tfs", "positions",
            "counts")
_PREFIX = "segment:"
#: what a patch costs per touched term, in pairs a build orders in the
#: same time — fitted from the crossover at 400, 1 000 and 4 000
#: documents (EXPERIMENTS E31): the next read patches its journal only
#: while ``touched terms × _PATCH_COST < pairs``
_PATCH_COST = 150


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


def _codes(names: dict[str, int], values: Iterable[str]) -> array:
    """``values`` as codes into ``names``, which grows a code per new
    name in order of first appearance."""
    return array("i", [names.setdefault(value, len(names))
                       for value in values])


def _inverse(bat) -> dict:
    """A functional BAT's tail -> head map (last row wins)."""
    heads, tails = bat.raw_columns()
    return dict(zip(tails, heads))


def _rows_of(keys: np.ndarray, heads: np.ndarray,
             ascending: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each key's row in a head column, and whether it is there at all:
    ``searchsorted`` on the column when it ascends, else on a stably
    sorted copy."""
    if not len(heads):
        return (np.zeros(len(keys), dtype=np.int64),
                np.zeros(len(keys), dtype=bool))
    order = None if ascending else np.argsort(heads, kind="stable")
    ordered = heads if order is None else heads[order]
    rows = np.minimum(np.searchsorted(ordered, keys), len(heads) - 1)
    found = ordered[rows] == keys
    return (rows if order is None else order[rows]), found


def _tails_by_pair(pairs: np.ndarray, bat) -> np.ndarray:
    """``bat``'s tail for every pair oid in ``pairs``.

    The pair-oid BATs are appended and deleted in lockstep, so their
    heads are positionally aligned and one array comparison proves it;
    anything else is matched by head.
    """
    heads, tails = (_int64(column) for column in bat.raw_columns())
    if np.array_equal(heads, pairs):
        return tails
    rows, found = _rows_of(pairs, heads, bat.head_ascending)
    if not found.all():
        raise CatalogError(f"{bat.name} lacks a row for a pair of "
                           "ir:DT:term")
    return tails[rows]


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
    """The pair relations clustered by term: what a build orders DT, TF
    and POS into, and what an IR part stores (int64 columns).

    ``terms`` ascend and ``starts`` holds the first row of each term's
    run.  A row is one pair: its oid (ascending within a run), its
    document as a row of ``ir:D`` (``dense``) and its tf.
    ``positions`` are the pairs' ``ir:POS`` tails, row after row,
    ``counts`` of them per row — ``tfs`` but for pre-v2 pairs, which
    have none.
    """

    terms: np.ndarray
    starts: np.ndarray
    pairs: np.ndarray
    dense: np.ndarray
    tfs: np.ndarray
    positions: np.ndarray
    counts: np.ndarray

    def columns(self) -> dict[str, np.ndarray]:
        """The plain columns an IR part stores, by container name."""
        names = _SEGMENT if not np.array_equal(self.counts, self.tfs) \
            else _SEGMENT[:-1]
        return {_PREFIX + name: getattr(self, name) for name in names}

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
        names = {name.removeprefix(_PREFIX) for name in columns}
        check(set(_SEGMENT[:-1]) <= names <= set(_SEGMENT)
              and all(name.startswith(_PREFIX) for name in columns),
              f"the IR part's plain columns are {sorted(columns)}, not "
              "the segment's")
        values = {name: columns.get(_PREFIX + name) for name in _SEGMENT}
        if values["counts"] is None:
            values["counts"] = values["tfs"]
        segment = cls(**values)
        terms, starts, pairs = segment.terms, segment.starts, segment.pairs
        check(len(starts) == len(terms) and len(pairs) == len(segment.dense)
              == len(segment.tfs) == len(segment.counts),
              "the segment's columns disagree in length")
        check(not len(terms) and not len(pairs) or len(terms)
              and starts[0] == 0 and starts[-1] < len(pairs)
              and (starts[1:] > starts[:-1]).all(),
              f"the segment's run starts do not ascend from 0 inside its "
              f"{len(pairs)} pairs")
        check((terms[1:] > terms[:-1]).all(), "the segment names a term "
              "twice")
        T = catalog.get("ir:T")
        check(_rows_of(terms, _int64(T.raw_columns()[0]),
                       T.head_ascending)[1].all(),
              "the segment names a term missing from ir:T")
        check(np.array_equal(np.sort(_int64(
            catalog.get("ir:IDF").raw_columns()[0])), terms),
            "ir:IDF does not name exactly the segment's terms")
        check(not len(pairs) or segment.dense.max()
              < len(catalog.get("ir:D")),
              "the segment names a document past the end of ir:D")
        check(not len(pairs) or segment.tfs.min() >= 1,
              "the segment holds a tf below 1")
        check(segment.counts.sum() == len(segment.positions),
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


@dataclass(eq=False)
class PackedPostings:
    """One term's postings as packed parallel columns.

    ``docs`` holds the doc oids and ``dense`` their positions in the
    owning index's ``doc_ids`` universe (both int64, posting order = DT
    insertion order); ``tfs`` are the integer term frequencies and
    ``tf_weights`` the same values pre-widened to float64 for the
    scoring kernels.  Each doc occurs at most once per term (one DT
    pair per document-term), which is what lets the kernels use
    unordered scatter-adds and stay bit-identical to the sequential
    scalar accumulation.

    Made by a build, the columns are numpy views over its term's run of
    the :class:`TermPostings` segment; :meth:`_copy` is the one place
    that makes owned ``array`` columns.  A made object is immutable and
    shared between index generations; only
    :meth:`IrRelations._patch_postings_index` mutates one, and only a
    private copy it made for the generation under construction.
    """

    docs: array
    dense: array
    tfs: array
    tf_weights: array
    max_tf: int = 0
    # the occurrence positions: posting ``row`` holds the run
    # ``pos_flat[pos_starts[row]:pos_starts[row] + pos_counts[row]]``.
    # A built term's runs point into the segment's whole positions
    # column; a patched copy owns its three columns.  A pair with no POS
    # rows (a pre-v2 snapshot's) has an empty run; ``unpositioned``
    # counts those: a term with any is position-less for phrase
    # matching, which never guesses adjacency.
    pos_flat: array = field(default_factory=lambda: array("q"))
    pos_starts: array = field(default_factory=lambda: array("q"))
    pos_counts: array = field(default_factory=lambda: array("q"))
    unpositioned: int = 0
    # the gathered position columns, built on first touch and shared by
    # every reader
    _position_columns: object = field(default=None, repr=False,
                                      compare=False)

    def __len__(self) -> int:
        return len(self.docs)

    def __eq__(self, other) -> bool:
        """Equal postings: equal column values (views or owned), max tf
        and positions."""
        if not isinstance(other, PackedPostings):
            return NotImplemented
        return (self.max_tf, self.unpositioned) \
            == (other.max_tf, other.unpositioned) \
            and all(map(np.array_equal, self._columns(), other._columns())) \
            and all(map(np.array_equal, self.position_columns(),
                        other.position_columns()))

    def _columns(self) -> tuple:
        return self.docs, self.dense, self.tfs, self.tf_weights

    def pairs(self) -> list[tuple[int, int]]:
        """The scalar view: ``[(doc, tf), ...]`` in posting order."""
        return list(zip(self.docs.tolist(), self.tfs.tolist()))

    @property
    def has_positions(self) -> bool:
        return not self.unpositioned

    def position_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The occurrence positions as columns: one flat int64 column
        and per-posting offsets, so posting ``row`` holds
        ``flat[offsets[row]:offsets[row + 1]]`` (an empty run for a
        pre-v2 pair).  Gathered from the runs on first touch."""
        columns = self._position_columns
        if columns is None:
            counts = _int64(self.pos_counts)
            offsets = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            rows = _run_rows(_int64(self.pos_starts), counts)
            columns = self._position_columns = (
                _view(self.pos_flat, np.int64)[rows], offsets)
        return columns

    def dense_view(self) -> np.ndarray:
        """The dense-position column as an int64 numpy view (zero-copy)."""
        return _view(self.dense, np.int64)

    def weights_view(self) -> np.ndarray:
        """The float64 tf column as a numpy view (zero-copy)."""
        return _view(self.tf_weights, np.float64)

    # -- copy-on-write maintenance (one generation's private copy) -------

    def _copy(self) -> "PackedPostings":
        runs = self.pos_flat, self.pos_starts, self.pos_counts
        if not isinstance(self.pos_flat, array):
            # a built term's runs point into the whole segment: gather
            flat, offsets = self.position_columns()
            runs = flat, offsets[:-1], np.diff(offsets)
        columns = [array(code, column.tobytes()) for code, column in zip(
            "qqqdqqq", (*self._columns(), *runs))]
        return PackedPostings(*columns[:4], self.max_tf, *columns[4:],
                              self.unpositioned)

    def _append(self, doc: int, dense: int, tf: int,
                positions: list[int]) -> None:
        """Add the posting with the highest pair oid: it goes last,
        exactly where a full rebuild would put it."""
        self.docs.append(doc)
        self.dense.append(dense)
        self.tfs.append(tf)
        self.tf_weights.append(tf)
        self.max_tf = max(self.max_tf, tf)
        self.pos_starts.append(len(self.pos_flat))
        self.pos_counts.append(len(positions))
        self.pos_flat.extend(positions)
        self.unpositioned += not positions

    def _remove(self, doc: int) -> None:
        """Drop one document's posting; the others keep their order.
        Its run stays in ``pos_flat``, unreferenced, until a build."""
        row = bisect_left(self.docs, doc)  # docs ascend, as oids are drawn
        if row == len(self.docs) or self.docs[row] != doc:
            row = self.docs.index(doc)
        tf = self.tfs[row]
        for column in (self.docs, self.dense, self.tfs, self.tf_weights,
                       self.pos_starts):
            del column[row]
        if tf == self.max_tf and tf not in self.tfs:  # it was the only max
            self.max_tf = max(self.tfs, default=0)
        self.unpositioned -= not self.pos_counts.pop(row)


class TermPostings(Mapping):
    """term oid -> :class:`PackedPostings`, made on a term's first lookup.

    A build leaves every pair in one *segment*: the doc, dense, tf and
    tf-weight columns and the start and length of each pair's run of
    positions in ``positions`` (:class:`_Segment`'s, the ``ir:POS``
    tails clustered by term), all sorted by (term, pair oid), plus
    ``table``, per term ``(start, stop, max_tf, unpositioned)`` of its
    rows, and ``runs``: term -> its row of ``table``, in order of first
    appearance (plain ints, so a million-term vocabulary is no million
    Python tuples for the garbage collector to walk).  A lookup makes
    the term's postings as views over its run and memoizes them in an
    *overlay* with ``setdefault``, so concurrent first lookups share
    one object.  A patched generation
    (:meth:`_derive`) shares the segment and copies only the overlay,
    where ``None`` marks a term no document holds any more.
    """

    def __init__(self, columns: tuple = (),
                 positions: np.ndarray | None = None,
                 runs: dict[int, int] | None = None,
                 table: np.ndarray | None = None):
        self._columns = columns
        self._positions = positions
        self._runs = runs or {}
        self._table = table
        self._made: dict[int, PackedPostings | None] = {}
        self._size = len(self._runs)

    def __getitem__(self, term: int) -> PackedPostings:
        packed = self._made.get(term, _UNMADE)
        if packed is _UNMADE:
            packed = self._made.setdefault(term, self._make(term))
        if packed is None:
            raise KeyError(term)
        return packed

    def __contains__(self, term) -> bool:
        packed = self._made.get(term, _UNMADE)
        return term in self._runs if packed is _UNMADE \
            else packed is not None

    def __iter__(self):
        made = dict(self._made)  # a snapshot: lookups add to the overlay
        return (term for term in {**self._runs, **made}
                if made.get(term, _UNMADE) is not None)

    def __len__(self) -> int:
        return self._size

    def _make(self, term: int) -> PackedPostings:
        start, stop, max_tf, unpositioned = \
            self._table[self._runs[term]].tolist()
        docs, dense, tfs, weights, starts, counts = (
            column[start:stop] for column in self._columns)
        get_telemetry().metrics.counter("ir.postings_materialized").add(1)
        return PackedPostings(docs, dense, tfs, weights, max_tf,
                              self._positions, starts, counts, unpositioned)

    # -- copy-on-write maintenance (one generation's private overlay) ----

    def _derive(self) -> "TermPostings":
        """The next generation: the same segment, a copied overlay."""
        derived = copy.copy(self)
        derived._made = dict(self._made)
        return derived

    def _put(self, term: int, packed: PackedPostings | None) -> None:
        """Set (``None``: drop) one term's postings in this overlay."""
        self._size += (packed is not None) - (term in self)
        self._made[term] = packed


@dataclass
class PostingsIndex:
    """The TF access path: term -> packed postings.

    Built column-wise from DT/TF into one sorted segment whose terms
    are made on first lookup (:class:`TermPostings`; the paper's
    fragmentation then orders these terms by descending idf) and from
    then on patched per generation; also carries the dense document
    universe (``doc_ids``: dense position -> doc oid) the scoring
    kernels accumulate over, the per-document lengths the language
    model needs, and the per-slot columns schema-2 queries match, facet
    and answer from: ``urls``, ``live``, and the url segments
    (:func:`url_segments`) as ``class_codes`` / ``field_codes`` into the
    ``class_names`` / ``field_names`` tables (name -> code, in order of
    first appearance).

    ``doc_ids`` may hold *dead slots*: a removed document keeps its
    dense position (no posting points at it any more, ``live`` is 0) so
    surviving ``dense`` columns stay valid.  ``doc_dense`` and
    ``doc_lengths`` are keyed by the **live** documents only.  An index
    is never mutated once published: readers holding one keep a
    consistent snapshot.
    """

    generation: int
    by_term: Mapping[int, PackedPostings] = field(default_factory=dict)
    doc_ids: array = field(default_factory=lambda: array("q"))
    doc_dense: dict[int, int] = field(default_factory=dict)
    doc_lengths: dict[int, int] = field(default_factory=dict)
    urls: list[str] = field(default_factory=list)
    live: array = field(default_factory=lambda: array("b"))
    class_codes: array = field(default_factory=lambda: array("i"))
    field_codes: array = field(default_factory=lambda: array("i"))
    class_names: dict[str, int] = field(default_factory=dict)
    field_names: dict[str, int] = field(default_factory=dict)

    def live_mask(self) -> np.ndarray:
        """``live`` as a bool column over the slots (zero-copy)."""
        return _view(self.live, bool)

    def segment_codes(self, segment: str
                      ) -> tuple[np.ndarray, dict[str, int]]:
        """One url segment's per-slot codes (zero-copy) and the name
        table they index; ``segment`` is ``"class"`` or ``"field"``."""
        if segment == "class":
            return _view(self.class_codes, np.int32), self.class_names
        return _view(self.field_codes, np.int32), self.field_names


class IrRelations:
    """The five IR relations over one catalog, with incremental updates.

    ``segment`` is a loaded IR part's (:meth:`load`): the pair BATs
    ``DT_doc``, ``DT_term``, ``TF`` and ``POS`` are then absent from the
    catalog until their first use derives them (:meth:`__getattr__`).
    """

    def __init__(self, catalog: Catalog | None = None,
                 segment: _Segment | None = None):
        self.catalog = catalog or Catalog()
        self.T = self.catalog.ensure("ir:T", "oid", "str")
        self.D = self.catalog.ensure("ir:D", "oid", "url")
        self.IDF = self.catalog.ensure("ir:IDF", "oid", "flt")
        # DT_doc, DT_term, TF and POS(pair-oid, position) — one POS row
        # per occurrence of a document-term pair in the analyzed
        # (stopped, stemmed) token sequence, a pair's rows in ascending
        # position; feeds phrase matching.  A pair without rows (a
        # pre-v2 snapshot's) stays searchable, just not phrase-matchable.
        # Exactly one of the four BATs and ``_segment`` holds the pairs.
        self._segment = segment
        self._derive_lock = threading.Lock()
        if segment is None:
            for attribute, (name, head, tail) in _PAIR_RELATIONS.items():
                setattr(self, attribute,
                        self.catalog.ensure(name, head, tail))
        self._term_oids: dict[str, Oid] = _inverse(self.T)
        self._doc_oids: dict[str, Oid] = _inverse(self.D)
        # (value, term oid) of the str.isdecimal terms — what float
        # accepts ('١٩٩٧' is 1997, '²' no number) — sorted for bisection
        self._numbers: list[tuple[float, Oid]] = sorted(
            (float(term), oid) for term, oid in self._term_oids.items()
            if term.isdecimal())
        # term oid -> document frequency, maintained by every write (a
        # catalog derives it from the authoritative DT once, in order of
        # first appearance; a segment has it as run lengths, in IDF's
        # row order); a term no document holds any more has no entry
        if segment is None:
            order, terms, starts = _grouped(
                _int64(self.DT_term.raw_columns()[1]))
            firsts = np.argsort(order[starts])
            terms, counts = terms[starts][firsts], \
                np.diff(starts, append=len(terms))[firsts]
        else:
            terms = _int64(self.IDF.raw_columns()[0])
            counts = np.diff(segment.starts, append=len(segment.pairs))[
                np.searchsorted(segment.terms, terms)]
        self._df: dict[Oid, int] = dict(zip(terms.tolist(), counts.tolist()))
        # Bumped on every mutation; IDF (and the callers' fragment sets
        # and result cache) are memoized against it.  A restored
        # snapshot starts stale so the first read writes IDF afresh.
        self.generation = 0
        self._idf_generation = -1
        # the df map as the columns IDF was last written from
        self._df_columns: tuple[np.ndarray, np.ndarray] = ()
        self._refresh_lock = threading.Lock()
        self._postings_index: PostingsIndex | None = None
        self._postings_lock = threading.Lock()
        # one entry per write since ``_postings_index`` was built, and
        # the terms those writes touched
        self._journal: list[tuple] = []
        self._touched: set[Oid] = set()
        # total term occurrences (for LM ranking); restored from the
        # tfs when the catalog or segment comes from a snapshot
        self.collection_length = int(
            _int64(self.TF.raw_columns()[1]).sum() if segment is None
            else segment.tfs.sum())

    def __getattr__(self, name: str):
        """A pair BAT a load left out: derived from the segment on its
        first use (only missing attributes get here)."""
        if name not in _PAIR_RELATIONS:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        self._derive_pair_relations()
        return self.__dict__[name]

    def _derive_pair_relations(self) -> None:
        """Make the four pair BATs from the loaded segment and drop it.

        One inverse permutation (the segment's rows by pair oid) plus
        gathers give every BAT in pair order, exactly as the writes
        left it; ``append_many`` keeps every check.  Double-checked
        under a lock like :meth:`refresh_idf`.
        """
        if self._segment is None:
            return
        with self._derive_lock:
            segment = self._segment
            if segment is None:
                return
            by_pair = np.argsort(segment.pairs)
            pairs = segment.pairs[by_pair]
            counts = segment.counts[by_pair]
            rows = _run_rows((np.cumsum(segment.counts) - segment.counts)[
                by_pair], counts)
            terms = np.repeat(segment.terms, np.diff(
                segment.starts, append=len(segment.pairs)))
            doc_ids = _int64(self.D.raw_columns()[0])
            columns = {
                "DT_doc": (pairs, doc_ids[segment.dense[by_pair]]),
                "DT_term": (pairs, terms[by_pair]),
                "TF": (pairs, segment.tfs[by_pair]),
                "POS": (np.repeat(pairs, counts), segment.positions[rows])}
            bats = {}
            for attribute, (heads, tails) in columns.items():
                name, head, tail = _PAIR_RELATIONS[attribute]
                bats[attribute] = self.catalog.create(name, head, tail)
                bats[attribute].append_many(_packed("q", heads),
                                            _packed("q", tails))
            self.__dict__.update(bats)
            self._segment = None
        get_telemetry().metrics.counter("ir.pair_rows_derived").add(
            len(pairs) + len(rows))

    def _pairs_segment(self) -> _Segment:
        """The pairs as a segment: the loaded one while no pair BAT has
        been derived, else the pair BATs' (:meth:`_segment_of_pairs`)."""
        segment = self._segment
        return segment if segment is not None else self._segment_of_pairs()

    def _segment_of_pairs(self) -> _Segment:
        """The segment of the pair BATs: one sort (:func:`_grouped`) of
        ``DT:term``'s tail clusters the pairs by term, in pair order
        within a term.

        Each pair's run of ``POS`` rows is found from POS's head — by
        the ``tf`` cumsum when POS is aligned (each pair's ``tf`` rows in
        pair order), else by ``searchsorted`` — and a pair without one
        (pre-v2) gets an empty run.  What both a build and a save start
        from.
        """
        pair_column, term_column = self.DT_term.raw_columns()
        pairs = _int64(pair_column)
        docs = _tails_by_pair(pairs, self.DT_doc)
        tfs = _tails_by_pair(pairs, self.TF)
        dense, known = _rows_of(docs, _int64(self.D.raw_columns()[0]),
                                self.D.head_ascending)
        if not known.all():
            raise CatalogError("ir:DT:doc names a document missing from ir:D")
        pos_heads, positions = map(_int64, self.POS.raw_columns())
        counts = tfs
        if len(pos_heads) == tfs.sum() \
                and np.array_equal(pos_heads, np.repeat(pairs, tfs)):
            pos_starts = np.cumsum(tfs) - tfs
        else:
            if not self.POS.head_ascending:
                by_pair = np.argsort(pos_heads, kind="stable")
                pos_heads, positions = pos_heads[by_pair], positions[by_pair]
            pos_starts = np.searchsorted(pos_heads, pairs)
            counts = np.searchsorted(pos_heads, pairs, "right") - pos_starts
        del pos_heads  # not needed for the gather: lower the peak
        order, terms, starts = _grouped(_int64(term_column))
        counts = counts[order]
        return _Segment(terms[starts], starts, pairs[order], dense[order],
                        tfs[order], positions[_run_rows(pos_starts[order],
                                                        counts)], counts)

    # -- persistence -----------------------------------------------------

    def save(self, path) -> int:
        """Write the IR part, one column container: ``ir:T``, ``ir:D``
        and ``ir:IDF`` (made current first) as BATs, the pair relations
        as the segment — the loaded one, unchanged, while no pair BAT
        has been derived.  Returns the value count to stamp."""
        self.refresh_idf()
        return save_catalog(self.catalog, path, names=_STORED,
                            columns=self._pairs_segment().columns())

    @classmethod
    def load(cls, path, generation: int, *, oid_start: int = 0,
             oid_stride: int = 1) -> "IrRelations":
        """Restore an IR part stamped with its manifest's
        ``generation``; ``oid_start``/``oid_stride`` restore a cluster
        node's strided oid sequence.  The segment is checked and the
        postings index installed over it at ``generation``: no build,
        no pair BAT.  IDF starts stale."""
        catalog, columns = load_catalog(path, oid_start=oid_start,
                                        oid_stride=oid_stride)
        segment = _Segment.restored(columns, catalog, path)
        get_telemetry().metrics.counter("ir.rows_loaded").add(
            catalog.total_buns() + len(segment.pairs)
            + len(segment.positions))
        relations = cls(catalog, segment)
        relations.generation = generation
        relations._postings_index = relations._index(segment, generation)
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

    def document_length(self, doc: Oid) -> int:
        """Total term occurrences of one document (via the packed index)."""
        return self.postings_index().doc_lengths.get(int(doc), 0)

    # -- indexing ---------------------------------------------------------

    def add_document(self, url: str, text: str) -> Oid:
        """Index one document body; IDF refresh is deferred (lazy).

        Each relation takes one batched append.  Oids are drawn in one
        fixed order — the document's, then per term in order of first
        occurrence the term's (if new) and its pair's — which snapshot
        bytes and every oid tie-break depend on.
        """
        if url in self._doc_oids:
            raise CatalogError(f"document already indexed: {url!r}")
        self._derive_pair_relations()
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
        runs = list(occurrences.values())
        tfs = list(map(len, runs))
        self.T.append_many(new_term_oids, new_terms)
        for term, term_oid in zip(new_terms, new_term_oids):
            if term.isdecimal():
                insort(self._numbers, (float(term), term_oid))
        self.DT_doc.append_many(pairs, [doc] * len(pairs))
        self.DT_term.append_many(pairs, terms)
        self.TF.append_many(pairs, tfs)
        self.POS.append_many(chain.from_iterable(map(repeat, pairs, tfs)),
                             chain.from_iterable(runs))
        df = self._df
        for term_oid in terms:
            df[term_oid] = df.get(term_oid, 0) + 1
        self.collection_length += sum(tfs)
        self._journal_write((_ADD, doc, url, terms, tfs, runs))
        self.generation += 1
        return doc

    def add_documents(self, documents: Iterable[tuple[str, str]]) -> None:
        """Index many (url, text) documents, then refresh IDF once."""
        for url, text in documents:
            self.add_document(url, text)
        self.refresh_idf()

    def remove_document(self, url: str) -> None:
        """Un-index one document (source data changed or disappeared).

        All-or-nothing: the document's pair run and every new total are
        computed before the first relation changes, so a lookup that
        raises leaves the index as it was.
        """
        doc = self._doc_oids.get(url)
        if doc is None:
            raise CatalogError(f"document not indexed: {url!r}")
        self._derive_pair_relations()
        # DT:doc's tail ascends (documents get ascending oids and pairs
        # are appended per document): the run is found by bisect
        pairs = self.DT_doc.find_heads(doc)
        terms = [self.DT_term.find(pair) for pair in pairs]
        length = sum(self.TF.find(pair) for pair in pairs)
        for relation in (self.DT_doc, self.DT_term, self.TF, self.POS):
            relation.delete_heads(pairs)  # pre-v2 pairs lack POS: fine
        self.D.delete_head(doc)
        del self._doc_oids[url]
        df = self._df
        for term in terms:
            if df[term] == 1:
                del df[term]
            else:
                df[term] -= 1
        self.collection_length -= length
        self._journal_write((_REMOVE, doc, url, terms, None, None))
        self.generation += 1

    def _journal_write(self, entry: tuple) -> None:
        """Remember one write for the built postings index, if any.

        Bulk loading before the first read journals nothing.  A patch
        costs per touched term and a build per pair, so a journal whose
        touched terms cost more to patch than a build
        (``touched × _PATCH_COST ≥ pairs``) drops both, as does one that
        outgrows the index it would patch (the memory bound): the next
        read pays the single full build a bulk load pays, and the
        journal holds nothing no read will use.
        """
        index = self._postings_index
        if index is None:
            return
        self._journal.append(entry)
        self._touched.update(entry[3])
        if len(self._touched) * _PATCH_COST >= len(self.TF) \
                or len(self._journal) > len(index.doc_dense):
            self._postings_index = None
            self._journal = []
            self._touched = set()

    def idf_fresh(self) -> bool:
        """Whether IDF reflects the current generation."""
        return self._idf_generation == self.generation

    def df_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The maintained document frequencies as two int64 columns —
        term oids and their dfs, in IDF's row order — as of the IDF
        refresh this call makes current (read-only: shared)."""
        self.refresh_idf()
        return self._df_columns

    def refresh_idf(self) -> None:
        """Write IDF from the maintained document frequencies
        (``idf = 1/df``, as in the paper): two packed columns, one
        vectorized division.

        Memoized against :attr:`generation`: a no-op unless the index
        mutated since the last refresh, so every read path may call it
        defensively.  Double-checked under a lock so concurrent readers
        racing a stale index rebuild IDF exactly once; the fast path is
        one integer comparison.
        """
        if self._idf_generation == self.generation:
            return
        telemetry = get_telemetry()
        with self._refresh_lock:
            generation = self.generation
            if self._idf_generation == generation:
                return
            with telemetry.tracer.span("ir.idf_refresh",
                                       terms=len(self._df)):
                df = self._df
                oids = array("q", df)
                counts = np.fromiter(df.values(), np.int64, len(df))
                fresh = self.catalog.get("ir:IDF")
                fresh.clear()  # rewritten wholesale: IDF is small (vocab)
                fresh.append_many(oids, _packed("d", 1.0 / counts))
                self._df_columns = (_view(oids, np.int64), counts)
            self._idf_generation = generation
        telemetry.metrics.counter("ir.idf_refresh").add(1)

    # -- per-term access (used by ranking and fragmentation) -----------

    def idf(self, term_oid: Oid) -> float:
        """idf of a term (0.0 when the term occurs nowhere).

        Reads through the lazy refresh: a stale IDF relation is
        recomputed on first access after a mutation.
        """
        if self._idf_generation != self.generation:
            self.refresh_idf()
        return self.IDF.get(term_oid, 0.0)

    def postings_index(self) -> PostingsIndex:
        """The packed postings access path, memoized per generation.

        Lifecycle: **build** — one columnar sort of DT/TF into a
        segment when no index exists (a bulk load before the first read
        pays exactly this, once; a restart's :meth:`load` installs the
        stored segment's index instead), a term's postings made on its
        first lookup; **journal** — every write appends one entry while
        an index exists and patching the terms touched so far stays
        cheaper than a build, which costs per pair (``touched ×
        _PATCH_COST < pairs``); past that the write drops journal and
        index; **patch** — the next read turns the old index plus the
        journal into the next generation copy-on-write, at a cost per
        touched term; **compaction** — when dead slots outnumber live
        documents the next generation is a full build again.
        Double-checked under a lock like :meth:`refresh_idf`.
        """
        index = self._postings_index
        if index is not None and index.generation == self.generation:
            return index
        telemetry = get_telemetry()
        with self._postings_lock:
            generation = self.generation
            index = self._postings_index
            if index is not None and index.generation == generation:
                return index
            journal, self._journal = self._journal, []
            touched, self._touched = self._touched, set()
            # a generation the journal does not account for was bumped
            # behind the write methods' back, and an index with more
            # dead slots than live documents is due for compaction:
            # either way only a build will do (a journal too dear to
            # patch went with its index, in ``_journal_write``)
            patch = index is not None \
                and index.generation + len(journal) == generation \
                and len(index.doc_ids) + sum(entry[0] == _ADD
                                             for entry in journal) \
                <= 2 * len(self._doc_oids)
            name = "ir.postings_patch" if patch else "ir.postings_build"
            with telemetry.tracer.span(name, journal=len(journal),
                                       touched=len(touched)) as span:
                if patch:
                    index = self._patch_postings_index(index, journal,
                                                       generation)
                else:
                    index = self._build_postings_index(generation)
                span.set_attributes(terms=len(index.by_term))
            self._postings_index = index
        if not patch:
            telemetry.metrics.counter("ir.postings_rebuilds").add(1)
        return index

    def _build_postings_index(self, generation: int) -> PostingsIndex:
        """The full build: the index over the pair BATs' segment
        (:meth:`_segment_of_pairs`), or over the loaded one while no
        pair BAT has been derived.  The scalar per-pair build this
        replaces is the oracle in ``tests/kernels``."""
        return self._index(self._pairs_segment(), generation)

    def _index(self, segment: _Segment, generation: int) -> PostingsIndex:
        """The postings index over ``segment`` and ``ir:D``, columnar;
        no term's postings are made (:class:`TermPostings`).

        A term's postings keep the segment's pair order; terms enter
        ``by_term`` in order of first appearance (their runs' first pair
        oids); a pair's positions are its run of ``segment.positions``.
        """
        index = PostingsIndex(generation=generation,
                              by_term=TermPostings())
        doc_column, urls = self.D.raw_columns()
        doc_ids = index.doc_ids = array("q", doc_column)
        index.doc_dense = dict(zip(doc_ids, range(len(doc_ids))))
        index.urls = list(urls)
        index.live = array("b", [1]) * len(doc_ids)
        segments = list(map(url_segments, urls))
        index.class_codes = _codes(index.class_names,
                                   (cls for cls, _ in segments))
        index.field_codes = _codes(index.field_names,
                                   (fld for _, fld in segments))
        if not len(segment.pairs):
            return index
        dense, tfs, counts = segment.dense, segment.tfs, segment.counts
        doc_oids = _int64(doc_ids)
        lengths = np.bincount(dense, weights=tfs, minlength=len(doc_ids))
        held = np.zeros(len(doc_ids), dtype=bool)
        held[dense] = True
        index.doc_lengths = dict(zip(
            doc_oids[held].tolist(), lengths[held].astype(np.int64).tolist()))
        starts = segment.starts
        firsts = np.argsort(segment.pairs[starts])  # by first appearance
        table = np.column_stack((
            starts, np.r_[starts[1:], len(tfs)],
            np.maximum.reduceat(tfs, starts),
            np.add.reduceat(counts == 0, starts, dtype=np.int64)))
        index.by_term = TermPostings(
            (doc_oids[dense], dense, tfs, tfs.astype(np.float64),
             np.cumsum(counts) - counts, counts),
            segment.positions,
            dict(zip(segment.terms[firsts].tolist(), firsts.tolist())), table)
        return index

    @staticmethod
    def _patch_postings_index(old: PostingsIndex, journal: list[tuple],
                              generation: int) -> PostingsIndex:
        """The next generation of ``old``, copy-on-write.

        The segment and every made, untouched :class:`PackedPostings`
        are shared with ``old`` (:meth:`TermPostings._derive`); a
        touched term is copied once, then patched.  The result answers
        exactly like a full build over the same relations — only its
        ``dense`` numbering (dead slots) and its dict orders differ.
        """
        index = PostingsIndex(
            generation=generation,
            by_term=old.by_term._derive(), doc_ids=old.doc_ids[:],
            doc_dense=dict(old.doc_dense),
            doc_lengths=dict(old.doc_lengths), urls=old.urls[:],
            live=old.live[:], class_codes=old.class_codes[:],
            field_codes=old.field_codes[:],
            class_names=dict(old.class_names),
            field_names=dict(old.field_names))
        by_term = index.by_term
        owned: set[int] = set()  # terms whose columns are private copies

        def own(term: int) -> PackedPostings:
            packed = by_term.get(term)
            if packed is None:  # a new term, or one emptied just now
                packed = PackedPostings(array("q"), array("q"), array("q"),
                                        array("d"))
            elif term in owned:
                return packed
            else:
                packed = packed._copy()
            owned.add(term)
            by_term._put(term, packed)
            return packed

        for op, doc, url, terms, tfs, runs in journal:
            doc = int(doc)
            if op == _ADD:
                dense = index.doc_dense[doc] = len(index.doc_ids)
                index.doc_ids.append(doc)
                index.urls.append(url)
                index.live.append(1)
                cls, fld = url_segments(url)
                index.class_codes += _codes(index.class_names, [cls])
                index.field_codes += _codes(index.field_names, [fld])
                if tfs:  # like a build: no pairs, no length entry
                    index.doc_lengths[doc] = sum(tfs)
                for term, tf, positions in zip(terms, tfs, runs):
                    own(int(term))._append(doc, dense, tf, positions)
                continue
            index.live[index.doc_dense.pop(doc)] = 0
            index.doc_lengths.pop(doc, None)
            for term in terms:
                term = int(term)
                packed = own(term)
                packed._remove(doc)
                if not packed.docs:
                    by_term._put(term, None)
        return index

    def postings(self, term_oid: Oid) -> list[tuple[Oid, int]]:
        """(doc-oid, tf) postings of one term, in DT insertion order."""
        packed = self.postings_index().by_term.get(int(term_oid))
        return packed.pairs() if packed is not None else []

    def packed_postings(self, term_oid: Oid) -> PackedPostings | None:
        """The packed column view of one term's postings, or ``None``."""
        return self.postings_index().by_term.get(int(term_oid))

    def document_frequency(self, term_oid: Oid) -> int:
        return self._df.get(term_oid, 0)

    def stats(self) -> dict[str, int]:
        return {
            "documents": self.document_count(),
            "terms": self.vocabulary_size(),
            "pairs": len(self.TF) if self._segment is None
            else len(self._segment.pairs),
            "collection_length": self.collection_length,
            "generation": self.generation,
        }
