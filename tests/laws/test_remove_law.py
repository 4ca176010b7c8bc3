"""Remove law: a remove moves rows in proportion to the document.

``monetdb.rows_moved`` counts every row a delete slides or copies.
Today a remove of a base document copies every other pair and position
row of the base into a new one (``_Segment.dropped``), so the rows moved
per remove grow with the corpus: the law is red until removes become
tombstones (ROADMAP item 8(b)), and ``strict`` makes that PR flip the
mark.
"""

import pytest

from repro.ir.engine import IrEngine
from repro.telemetry import telemetry_session

from tests.laws.conftest import N, documents

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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8(b): a base "
                   "remove copies the rest of the base until removes "
                   "become tombstones")
def test_rows_moved_per_remove_are_constant_in_n():
    small, large = (rows_moved_per_remove(count) for count in (N, 4 * N))
    # the same generator's documents: equal up to their own sizes
    assert large <= 1.5 * small
