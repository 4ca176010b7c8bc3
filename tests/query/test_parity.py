"""Acceptance: schema-2 rankings are bit-identical kernel vs oracle.

Every structured query shape — bag, phrase, fielded, boolean, range,
boosted, filtered, paginated inputs — runs through the columnar
:func:`repro.ir.topn.topn_structured` and the scalar loop of
``tests/kernels/topn_oracle.py``; the rankings (including scores, not
just order) and the tuples read must compare equal.
"""

import numpy as np
import pytest

from repro.ir.topn import topn_structured
from repro.query import compile_query, parse_rich_query

from tests.kernels import topn_oracle as oracle

pytestmark = pytest.mark.query

SHAPES = [
    "digital library",                       # v1-style bag of words
    '"digital library"',                     # phrase
    '"information retrieval"',
    "title:database",                        # fielded
    "title:library^4 abstract:library",      # fielded + boosted
    "retrieval AND NOT kernels",             # boolean
    "(database OR retrieval) AND ranking",
    "library NOT metadata",
    "year:1990-2001",                        # pure range: score-0 docs
    '"information retrieval" OR title:search',
    "database^3 OR kernels",
]


def both(fragments, compiled, n=10):
    scalar = oracle.topn_structured(fragments, compiled, n)
    kernel = topn_structured(fragments, compiled, n)
    assert kernel.details["kernel"] == "columnar"
    assert kernel.tuples_read == scalar.tuples_read
    assert kernel.fragments_read == scalar.fragments_read
    return scalar, kernel


@pytest.mark.parametrize("source", SHAPES)
def test_rankings_bit_identical(relations, fragments, source):
    compiled = compile_query(relations, parse_rich_query(source))
    scalar, kernel = both(fragments, compiled)
    assert scalar.ranking == kernel.ranking


@pytest.mark.parametrize("source", SHAPES)
def test_full_collection_rankings_bit_identical(relations, fragments,
                                                source):
    # n beyond the collection: every matched doc appears, same order
    compiled = compile_query(relations, parse_rich_query(source))
    scalar, kernel = both(fragments, compiled, n=1000)
    assert scalar.ranking == kernel.ranking
    assert len(scalar.ranking) == np.count_nonzero(compiled.matched)


def test_boosted_request_parity(relations, fragments):
    compiled = compile_query(
        relations, parse_rich_query("digital library"),
        field_boosts=(("title", 4.0), ("abstract", 3.0)))
    scalar, kernel = both(fragments, compiled)
    assert scalar.ranking == kernel.ranking
    # boosts actually moved scores: a title doc outranks its base score
    assert any(score > 0 for _, score in scalar.ranking)


def test_filtered_request_parity(relations, fragments):
    compiled = compile_query(
        relations, parse_rich_query("1999 OR 1995 OR 1989"),
        filters=(("year", "1990-2001"),))
    scalar, kernel = both(fragments, compiled)
    assert scalar.ranking == kernel.ranking
    assert len(scalar.ranking) == 2  # 1989 filtered out


def test_match_only_docs_rank_at_zero_in_both(relations, fragments):
    compiled = compile_query(relations, parse_rich_query("year:1996-1999"))
    scalar, kernel = both(fragments, compiled)
    assert scalar.ranking == kernel.ranking
    assert all(score == 0.0 for _, score in scalar.ranking)
    # deterministic tie-break: ascending doc oid
    oids = [int(doc) for doc, _ in scalar.ranking]
    assert oids == sorted(oids)
