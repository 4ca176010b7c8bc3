"""The scalar postings build: the oracle the columnar index must equal,
and the pair rows it reads.

``build_postings_index`` is the postings build as it was before it went
columnar — one Python pass over the pair rows, grouping through dicts.
The pair rows (``pair_rows``) are the DT/TF/POS relations read off the
compacted segment, one row per pair in pair-oid order, the way the
four pair BATs once held them.  Both live here, not in production, so
the columnar index has one plain reference to be compared against.
"""

from array import array

import numpy as np

from repro.ir.relations import (IrRelations, PackedPostings,
                                PostingsIndex, url_segments)
from repro.monetdb.catalog import Catalog


def docs_of(doc_ids, packed: PackedPostings) -> list[int]:
    """One term's postings' doc oids in posting order: ``doc_ids[dense]``
    over the universe of the index (or fragment set) that made them."""
    return np.array(doc_ids, dtype=np.int64)[packed.dense_view()].tolist()


def pairs(doc_ids, packed: PackedPostings | None) -> list[tuple[int, int]]:
    """One term's postings as ``(doc, tf)`` in posting order (``None``,
    a term with no postings: none)."""
    if packed is None:
        return []
    return list(zip(docs_of(doc_ids, packed), packed.tfs.tolist()))


def live_documents(relations: IrRelations) -> list[tuple[int, str]]:
    """``ir:D``'s live rows as ``(doc, url)``, in row order: a removed
    document's row stays, dead, until compaction."""
    return [(int(doc), url) for doc, url in relations.D
            if relations.doc_oid(url) == doc]


def pair_rows(relations: IrRelations) -> list[tuple]:
    """``(pair, doc, term, tf, positions)`` per pair, in pair order,
    from the segment a compaction would make (the relations are left as
    they are)."""
    segment = relations._merged()
    docs = np.array([doc for doc, _ in live_documents(relations)],
                    dtype=np.int64)
    terms = np.repeat(segment.terms,
                      np.diff(segment.starts, append=len(segment.pairs)))
    offsets = np.cumsum(segment.tfs) - segment.tfs
    rows = [(int(pair), int(docs[dense]), int(term), int(tf),
             segment.positions[start:start + tf].tolist())
            for pair, dense, term, tf, start in zip(
                segment.pairs, segment.dense, terms, segment.tfs, offsets)]
    return sorted(rows)


def copy_catalog(catalog: Catalog, documents=None) -> Catalog:
    """A deep copy through the public surface (what a snapshot does);
    ``documents``, if given, are the ``(doc, url)`` rows ``ir:D`` gets."""
    fresh = Catalog()
    for name in catalog.names():
        bat = catalog.get(name)
        rows = (list(bat.head), list(bat.tail)) \
            if documents is None or name != "ir:D" \
            else ([doc for doc, _ in documents],
                  [url for _, url in documents])
        fresh.create(name, bat.head_type, bat.tail_type).append_many(*rows)
    fresh.oids.advance_past(int(catalog.oids.peek()) - 1)
    return fresh


def compacted(relations: IrRelations) -> IrRelations:
    """A fresh ``IrRelations`` over a copy of the catalog whose base is
    the compacted segment and whose ``ir:D`` holds the live documents:
    what a restart of a save would hold."""
    # the stored relations: the base's df order is ir:IDF's row order
    copy = IrRelations(copy_catalog(relations._stored(),
                                    live_documents(relations)),
                       relations._merged())
    copy.generation = relations.generation
    return copy


def build_postings_index(relations: IrRelations,
                         generation: int) -> PostingsIndex:
    index = PostingsIndex(generation=generation)
    doc_ids = index.doc_ids
    doc_dense = index.doc_dense
    for doc, url in live_documents(relations):
        doc_dense[doc] = len(doc_ids)
        doc_ids.append(doc)
        index.urls.append(url)
        index.live.append(1)
        cls, fld = url_segments(url)
        index.class_codes.append(
            index.class_names.setdefault(cls, len(index.class_names)))
        index.field_codes.append(
            index.field_names.setdefault(fld, len(index.field_names)))
    grouped: dict[int, tuple[list[int], list[int], list[list[int]]]] = {}
    for _, doc, term, tf, positions in pair_rows(relations):
        entry = grouped.get(term)
        if entry is None:
            entry = grouped[term] = ([], [], [])
        entry[0].append(doc)
        entry[1].append(tf)
        entry[2].append(positions)
    for term, (docs, tfs, runs) in grouped.items():
        index.by_term[term] = PackedPostings(
            dense=array("q", [doc_dense[doc] for doc in docs]),
            tfs=array("q", tfs),
            tf_weights=array("d", tfs),
            max_tf=max(tfs, default=0),
            positions=np.array([value for run in runs for value in run],
                               dtype=np.int64))
    return index
