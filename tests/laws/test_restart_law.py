"""Restart law: a restart loads columns, and a first query pays for its
own terms, not the vocabulary.

After a restart — ``load_engine`` of a snapshot, or a
``StaticIndexReader`` over an exported artifact — the first fragmented
query makes the postings of exactly its in-vocabulary terms
(``ir.postings_materialized``), at N documents as at 4N; the one
postings build per tier stays (persisting it is ROADMAP item 11).  The
rows a tier loads (``ir.rows_loaded``) grow with the corpus, and
``ir:POS`` comes back as a packed integer column, never one ``str`` per
posting.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SearchEngine
from repro.ir.ranking import query_term_oids
from repro.offline import StaticIndexReader, export_index
from repro.persistence import load_engine, save_engine
from repro.service import SearchRequest
from repro.service.api import MODE_FRAGMENTED
from repro.telemetry import telemetry_session
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema

from tests.laws.conftest import N, documents

pytestmark = pytest.mark.persistence

#: two corpus terms (a head and a tail one) and one no document holds
QUERY = "w0001 w0700 zqnowhere"
TIERS = ("snapshot", "artifact")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """size -> (server, root holding a snapshot and an artifact of an
    engine over that many corpus documents), each saved once."""
    made = {}

    def save(size: int):
        if size not in made:
            server, _ = build_ausopen_site(players=4, articles=2, videos=1,
                                           frames_per_shot=4)
            engine = SearchEngine(australian_open_schema(), server,
                                  EngineConfig(fragment_count=4))
            engine.populate()
            for url, text in documents(size):
                engine.ir.reindex(url, text)
            root = tmp_path_factory.mktemp("restart")
            save_engine(engine, root / "snapshot")
            export_index(engine, root / "artifact")
            made[size] = server, root
        return made[size]
    return save


def open_tier(tier: str, server, root):
    """Restart one tier: ``(engine to query, its IR relations)``."""
    if tier == "snapshot":
        engine = load_engine(root / "snapshot", australian_open_schema(),
                             server)
        return engine, engine.ir.relations
    reader = StaticIndexReader(root / "artifact")
    return reader, reader._engine.relations


@pytest.fixture(params=[N, 4 * N], ids=["N", "4N"])
def restart(request, saved):
    return saved(request.param)


def assert_first_query_makes_its_terms(tier: str, server, root) -> None:
    with telemetry_session() as telemetry:
        engine, relations = open_tier(tier, server, root)
        engine.execute(SearchRequest(query=QUERY, mode=MODE_FRAGMENTED))
        made, builds = (telemetry.metrics.sum_counters(name) for name in (
            "ir.postings_materialized", "ir.postings_rebuilds"))
    assert made == len(query_term_oids(relations, QUERY)) == 2
    assert builds == 1


def test_a_restarted_engine_makes_only_the_query_terms(restart):
    assert_first_query_makes_its_terms("snapshot", *restart)


def test_a_static_reader_makes_only_the_query_terms(restart):
    assert_first_query_makes_its_terms("artifact", *restart)


@pytest.mark.parametrize("tier", TIERS)
def test_a_restart_loads_positions_as_an_integer_column(saved, tier):
    _, relations = open_tier(tier, *saved(N))
    assert relations.POS.storage() == ("q", "q")
    assert len(relations.POS) == relations.collection_length


@pytest.mark.parametrize("tier", TIERS)
def test_rows_loaded_grow_with_the_corpus(saved, tier):
    loaded = {}
    for size in (N, 4 * N):
        with telemetry_session() as telemetry:
            open_tier(tier, *saved(size))
            loaded[size] = telemetry.metrics.sum_counters("ir.rows_loaded")
    assert 3.5 * loaded[N] <= loaded[4 * N] <= 4.5 * loaded[N]
