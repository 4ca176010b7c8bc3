"""The sorted schema-2 page as it was made before pages were cut on slot
columns: the oracle ``IrEngine._structured`` must equal.

``_sort_pairs`` is the old production re-sort, verbatim: a stable
multi-pass sort of ``(url, score)`` pairs, last key first.  ``execute``
is the old execution core around it: rank the *whole* match set when a
sort is set (``offset + limit`` rows otherwise), turn every ranked doc
into a ``(url, score)`` pair, re-sort the pairs, slice the page.  The
scan, the compile and the facets are production's; only the page is
made the old way.
"""

import numpy as np

from repro.ir.engine import _facet_counts
from repro.ir.topn import topn_structured


def _sort_pairs(pairs: list[tuple[str, float]],
                sort: tuple[tuple[str, str], ...]) -> list[tuple[str, float]]:
    """Re-order a ``(url, score)`` ranking by the request's sort keys.

    Stable multi-key: applied last-key-first so earlier keys dominate.
    Content modes know four sortable properties — ``score``, the
    ``url`` itself, and its ``class``/``attribute`` segments.
    """
    from repro.errors import QueryError
    from repro.query import doc_class_of, doc_field_of

    key_functions = {
        # quantized like the canonical ranking order, so sort=score:desc
        # is a no-op relative to the scan's own tie-breaking
        "score": lambda pair: round(pair[1], 9),
        "url": lambda pair: pair[0],
        "key": lambda pair: pair[0],
        "class": lambda pair: doc_class_of(pair[0]),
        "field": lambda pair: doc_field_of(pair[0]),
        "attribute": lambda pair: doc_field_of(pair[0]),
    }
    ranked = list(pairs)
    for name, direction in reversed(sort):
        key_function = key_functions.get(name)
        if key_function is None:
            raise QueryError(
                f"unknown sort field {name!r} for content modes; "
                f"expected one of {sorted(set(key_functions))}")
        ranked.sort(key=key_function, reverse=(direction == "desc"))
    return ranked


def execute(engine, request):
    """A schema-2 request answered by ranking everything, stringifying
    every hit, re-sorting the pairs and slicing the page."""
    from repro.query import compile_query, parse_rich_query
    from repro.service import api

    compiled = compile_query(engine.relations,
                             parse_rich_query(request.query),
                             field_boosts=request.boosts,
                             filters=request.filters)
    index = engine.relations.postings_index()
    total = int(np.count_nonzero(compiled.matched))
    limit = request.limit if request.limit is not None \
        else request.policy.n
    need = total if request.sort else request.offset + limit
    result = topn_structured(engine.fragments(), compiled, max(need, 1))
    urls, slot_of = index.urls, index.doc_dense
    pairs = [(urls[slot_of[doc]], score)
             for doc, score in result.ranking]
    if request.sort:
        pairs = _sort_pairs(pairs, request.sort)
    return api.response_from_ranking(
        request, pairs[request.offset:request.offset + limit], 0.0,
        tuples_touched=result.tuples_read,
        facets=_facet_counts(index, compiled.matched, request.facets),
        total=total, result=result)
