"""The scalar postings build: the oracle the columnar build must equal.

This is ``IrRelations._build_postings_index`` as it was before the
build went columnar — one Python pass over the pair columns, grouping
through dicts.  It lives here, not in production, so the columnar build
has one plain reference to be compared against.
"""

from array import array
from itertools import accumulate

from repro.ir.relations import (IrRelations, PackedPostings,
                                PostingsIndex, url_segments)


def build_postings_index(relations: IrRelations,
                         generation: int) -> PostingsIndex:
    index = PostingsIndex(generation=generation)
    doc_ids = index.doc_ids
    doc_dense = index.doc_dense
    for doc, url in zip(relations.D.head, relations.D.tail):
        doc = int(doc)
        doc_dense[doc] = len(doc_ids)
        doc_ids.append(doc)
        index.urls.append(url)
        index.live.append(1)
        cls, fld = url_segments(url)
        index.class_codes.append(
            index.class_names.setdefault(cls, len(index.class_names)))
        index.field_codes.append(
            index.field_names.setdefault(fld, len(index.field_names)))
    doc_of = dict(zip(relations.DT_doc.head, relations.DT_doc.tail))
    tf_of = dict(zip(relations.TF.head, relations.TF.tail))
    pos_of: dict[int, list[int]] = {}  # a pair's POS rows, in row order
    for pair, position in zip(relations.POS.head, relations.POS.tail):
        pos_of.setdefault(pair, []).append(position)
    grouped: dict[int, tuple[list[int], list[int], list[list[int]]]] = {}
    doc_lengths = index.doc_lengths
    for pair, term in zip(relations.DT_term.head, relations.DT_term.tail):
        doc = doc_of[pair]
        tf = tf_of[pair]
        entry = grouped.get(term)
        if entry is None:
            entry = grouped[term] = ([], [], [])
        entry[0].append(doc)
        entry[1].append(tf)
        entry[2].append(pos_of.get(pair, []))  # []: a pre-v2 pair
        doc_lengths[doc] = doc_lengths.get(doc, 0) + tf
    for term, (docs, tfs, runs) in grouped.items():
        counts = list(map(len, runs))
        index.by_term[term] = PackedPostings(
            docs=array("q", docs),
            dense=array("q", [doc_dense[doc] for doc in docs]),
            tfs=array("q", tfs),
            tf_weights=array("d", tfs),
            max_tf=max(tfs, default=0),
            pos_flat=array("q", [value for run in runs for value in run]),
            pos_starts=array("q", accumulate(counts[:-1], initial=0)),
            pos_counts=array("q", counts),
            unpositioned=counts.count(0))
    return index
