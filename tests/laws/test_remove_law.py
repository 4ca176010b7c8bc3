"""Remove law: a remove moves rows in proportion to the document.

``monetdb.rows_moved`` counts every row a delete slides or copies.  A
remove is a tombstone: the document's slot goes dead, and its pair rows
and its ``ir:D`` row stay until a compaction, which no remove runs — so
the rows moved per remove do not grow with the corpus.
"""

import pytest

from repro.ir.engine import IrEngine
from repro.telemetry import telemetry_session

from tests.laws.conftest import N, documents

pytestmark = pytest.mark.kernels

REMOVES = 20


def rows_moved_per_remove(count: int) -> float:
    corpus = documents(count)
    engine = IrEngine(fragment_count=4)
    for url, text in corpus:
        engine.index(url, text)
    engine.search_fragmented("w0001 w0002")  # index, IDF, fragments built
    with telemetry_session() as telemetry:
        for url, _ in corpus[::count // REMOVES][:REMOVES]:
            engine.remove(url)
        moved = telemetry.metrics.sum_counters("monetdb.rows_moved")
    return moved / REMOVES


def test_rows_moved_per_remove_are_constant_in_n():
    small, large = (rows_moved_per_remove(count) for count in (N, 4 * N))
    # the same generator's documents: equal up to their own sizes
    assert large <= 1.5 * small
