"""The scalar fragment layout: the oracle the columnar build must equal.

This is ``fragment_by_idf`` as it was before the layout went columnar —
a Python sort of the IDF relation's rows, a greedy cut loop and one
comprehension per fragment container.  It lives here, not in
production, so the columnar build has one plain reference to be
compared against.  Only two lines differ from the production body it
replaced: the ``ir.fragment_rebuilds`` count (an oracle build is not a
product rebuild) and the ``max_tf`` dict, which ``Fragment`` no longer
carries (the bound reads ``packed[term].max_tf``).
"""

from repro.errors import BatError
from repro.ir.fragmentation import Fragment, FragmentSet
from repro.ir.relations import IrRelations


def fragment_by_idf(relations: IrRelations, fragment_count: int,
                    order: str = "idf") -> FragmentSet:
    if fragment_count < 1:
        raise BatError("fragment_count must be >= 1")
    relations.refresh_idf()
    idf_of = dict(zip(relations.IDF.head, relations.IDF.tail))
    term_oids = list(idf_of)
    if order == "idf":
        term_oids.sort(key=lambda oid: (-idf_of[oid], oid))
    elif order == "random":
        term_oids.sort(key=lambda oid: (oid * 2654435761) % (1 << 32))
    else:
        raise BatError(f"unknown fragmentation order: {order!r}")

    index = relations.postings_index()
    by_term = index.by_term
    sizes = [len(by_term[oid]) for oid in term_oids]
    target = max(1, -(-sum(sizes) // fragment_count))  # ceil division

    # a fragment closes once it holds its share of the tuples (the last
    # one takes the rest): cut points first, then one slice per fragment
    cuts = [0]
    tuples = 0
    for position, size in enumerate(sizes):
        if tuples >= target and len(cuts) < fragment_count:
            cuts.append(position)
            tuples = 0
        tuples += size
    cuts.append(len(term_oids))

    fragment_set = FragmentSet(doc_ids=index.doc_ids)
    for start, stop in zip(cuts, cuts[1:]):
        terms = term_oids[start:stop]
        packed = {oid: by_term[oid] for oid in terms}
        fragment_set.fragments.append(Fragment(
            index=len(fragment_set.fragments),
            term_oids=set(terms),
            idf={oid: idf_of[oid] for oid in terms},
            tuples=sum(sizes[start:stop]),
            packed=packed))
    return fragment_set
