"""Restart law: a first query pays for its own terms, not the vocabulary.

After a restart — ``load_engine`` of a snapshot, or a
``StaticIndexReader`` over an exported artifact — the first fragmented
query makes the postings of exactly its in-vocabulary terms
(``ir.postings_materialized``), at N documents as at 4N; the one
postings build per tier stays (persisting it is ROADMAP item 11).
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

#: two corpus terms (a head and a tail one) and one no document holds
QUERY = "w0001 w0700 zqnowhere"


@pytest.fixture(scope="module", params=[N, 4 * N], ids=["N", "4N"])
def restart(request, tmp_path_factory):
    server, _ = build_ausopen_site(players=4, articles=2, videos=1,
                                   frames_per_shot=4)
    engine = SearchEngine(australian_open_schema(), server,
                          EngineConfig(fragment_count=4))
    engine.populate()
    for url, text in documents(request.param):
        engine.ir.reindex(url, text)
    root = tmp_path_factory.mktemp("restart")
    save_engine(engine, root / "snapshot")
    export_index(engine, root / "artifact")
    return server, root


def assert_first_query_makes_its_terms(open_tier) -> None:
    with telemetry_session() as telemetry:
        engine, relations = open_tier()
        engine.execute(SearchRequest(query=QUERY, mode=MODE_FRAGMENTED))
        made, builds = (telemetry.metrics.sum_counters(name) for name in (
            "ir.postings_materialized", "ir.postings_rebuilds"))
    assert made == len(query_term_oids(relations, QUERY)) == 2
    assert builds == 1


def test_a_restarted_engine_makes_only_the_query_terms(restart):
    server, root = restart

    def open_tier():
        engine = load_engine(root / "snapshot", australian_open_schema(),
                             server)
        return engine, engine.ir.relations

    assert_first_query_makes_its_terms(open_tier)


def test_a_static_reader_makes_only_the_query_terms(restart):
    _, root = restart

    def open_tier():
        reader = StaticIndexReader(root / "artifact")
        return reader, reader._engine.relations

    assert_first_query_makes_its_terms(open_tier)
