"""Relational algebra over BATs: the two column operators the engine runs.

* :func:`join_packed` — the navigation step of path expressions
  (:mod:`repro.xmlstore.pathexpr`), one head-index pass per column
  rather than one ``find_all`` per row: the set-at-a-time execution
  model of Monet's BAT algebra.
* :func:`topn_merge` — the central merge of the per-server top-N
  rankings (:mod:`repro.ir.distributed`), in the ranking total order
  every scan selects in (:func:`repro.ir.ranking.select_top`).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.monetdb.bat import BAT
from repro.monetdb.server import MonetServer

__all__ = ["join_packed", "topn_merge"]


def join_packed(left_pairs: Iterable[tuple[Any, Any]], right: BAT,
                server: MonetServer | None = None
                ) -> list[tuple[Any, Any]]:
    """Join a packed (carry, key) column against a BAT's head in batch.

    For every input pair ``(carry, key)`` emit ``(carry, tail)`` for
    each of ``key``'s tails in ``right`` — the navigation step of path
    expressions (carry = origin oid, key = parent, tails = children)
    executed against the head index once per column instead of one
    ``find_all`` per row.
    """
    pairs = list(left_pairs)
    if server is not None:
        server.charge(len(pairs) + len(right))
    groups = right.head_groups()
    tail = right.tail
    result: list[tuple[Any, Any]] = []
    append = result.append
    empty: list[int] = []
    for carry, key in pairs:
        for position in groups.get(key, empty):
            append((carry, tail[position]))
    return result


def topn_merge(rankings: Sequence[Sequence[tuple[Any, float]]], n: int
               ) -> list[tuple[Any, float]]:
    """Merge per-server (key, score) rankings into one global top-N.

    The output order is the ranking **total order** of a single node:
    score quantized to 1e-9 descending, then key ascending — one
    :func:`~repro.ir.ranking.select_top` over the concatenated rankings,
    so a cluster orders a half-way pair as a node does.  Keys (central
    doc oids, or urls) are unique across one merge, so the merged top-N
    is a pure function of the input *sets*: thread and process backends
    merge identically under equal scores even when a node mapped local
    oids onto central oids and thereby perturbed its input's tie order.
    """
    # the ranking layer sits above this one: imported on use
    from repro.ir.ranking import select_top

    merged = [pair for ranking in rankings for pair in ranking]
    top = select_top(np.array([score for _, score in merged], dtype=float),
                     np.array([key for key, _ in merged]), n)
    return [merged[position] for position in top.tolist()]
