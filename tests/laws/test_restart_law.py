"""Restart law: a restart reads its postings, not its pair relations.

After a restart — ``load_engine`` of a snapshot, or a
``StaticIndexReader`` over an exported artifact — the IR part's stored
segment is the base of the postings: the first fragmented query pays no
compaction (``ir.postings_rebuilds`` 0) and makes the postings of
exactly its in-vocabulary terms (``ir.postings_materialized``), at N
documents as at 4N.  The first write after a restart copies nothing:
an add goes to the delta and the loaded base stays as it is.  A write
after a restart is read over base plus delta with no compaction,
answering like a live engine after the same write, and so is a
replayed 50-write WAL tail.  The rows a tier loads (``ir.rows_loaded``)
grow with the corpus, and the positions come back as a packed integer
column, never one ``str`` per posting.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import SearchEngine
from repro.ir.ranking import query_term_oids
from repro.offline import StaticIndexReader, export_index
from repro.persistence import load_engine
from repro.service import SearchRequest, SearchService
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2)
from repro.telemetry import telemetry_session
from repro.wal import WriteAheadLog
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema

from tests.laws.conftest import N, SEED, documents
from benchmarks.suite import corpus

# the static tier's half also runs in the offline job, which owns the
# reader
pytestmark = pytest.mark.persistence

#: two corpus terms (a head and a tail one) and one no document holds
QUERY = "w0001 w0700 zqnowhere"
TIERS = ("snapshot", pytest.param("artifact", marks=pytest.mark.offline))
#: the writes a restart replays from the WAL, as in ``cold-start``
TAIL_WRITES = 50
#: the first corpus document, and what one write after a restart puts
#: in its place: its first 40 words reversed and two new ones
URL, TEXT = documents(1)[0]
REINDEXED = " ".join(TEXT.split()[39::-1] + ["grandslam", "finalist"])
#: schema-2 queries over the reindexed document's old and new terms: a
#: removed phrase, an added one, phrases of terms other documents hold
PHRASES = (QUERY, '"w0153 w0074"', '"w0074 w0153"', '"w0000 w0001"',
           '"grandslam finalist" OR w0043', 'w0001 AND NOT "w0000 w0000"')


def live_engine(size: int):
    """``(server, engine)``: a live engine over ``size`` corpus
    documents."""
    server, _ = build_ausopen_site(players=4, articles=2, videos=1,
                                   frames_per_shot=4)
    engine = SearchEngine(australian_open_schema(), server,
                          EngineConfig(fragment_count=4))
    engine.populate()
    for url, text in documents(size):
        engine.ir.reindex(url, text)
    return server, engine


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """size -> (server, root holding a snapshot and an artifact of an
    engine over that many corpus documents, and the WAL tail written
    after both), each saved once."""
    made = {}

    def save(size: int):
        if size not in made:
            server, engine = live_engine(size)
            root = tmp_path_factory.mktemp("restart")
            with WriteAheadLog(root / "wal") as wal, \
                    SearchService(engine, wal=wal) as service:
                service.snapshot(root / "snapshot")
                export_index(engine, root / "artifact")
                for url, text in corpus.documents(TAIL_WRITES, SEED, "tail"):
                    service.reindex(url, text)
            made[size] = server, root
        return made[size]
    return save


def open_tier(tier: str, server, root, *, replay: bool = False):
    """Restart one tier: ``(engine to query, its IR relations)``; the
    snapshot tier replays the WAL tail only when asked."""
    if tier == "snapshot":
        if replay:
            with WriteAheadLog(root / "wal") as wal:
                engine = load_engine(root / "snapshot",
                                     australian_open_schema(), server,
                                     wal=wal)
        else:
            engine = load_engine(root / "snapshot",
                                 australian_open_schema(), server)
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
        made, builds = (
            telemetry.metrics.sum_counters(name) for name in (
                "ir.postings_materialized", "ir.postings_rebuilds"))
    assert made == len(query_term_oids(relations, QUERY)) == 2
    assert builds == 0


def test_a_restarted_engine_makes_only_the_query_terms(restart):
    assert_first_query_makes_its_terms("snapshot", *restart)


@pytest.mark.offline
def test_a_static_reader_makes_only_the_query_terms(restart):
    assert_first_query_makes_its_terms("artifact", *restart)


@pytest.mark.parametrize("tier", TIERS)
def test_a_restart_loads_positions_as_an_integer_column(saved, tier):
    _, relations = open_tier(tier, *saved(N))
    positions = relations._base.positions
    assert isinstance(positions, np.ndarray) and positions.dtype == np.int64
    assert len(positions) == relations.collection_length


@pytest.mark.parametrize("tier", TIERS)
def test_rows_loaded_grow_with_the_corpus(saved, tier):
    loaded = {}
    for size in (N, 4 * N):
        with telemetry_session() as telemetry:
            open_tier(tier, *saved(size))
            loaded[size] = telemetry.metrics.sum_counters("ir.rows_loaded")
    assert 3.5 * loaded[N] <= loaded[4 * N] <= 4.5 * loaded[N]


def test_the_first_write_after_a_restart_copies_nothing(saved):
    server, root = saved(N)
    engine, relations = open_tier("snapshot", server, root)
    pairs = relations.stats()["pairs"]
    base = relations._base
    with telemetry_session() as telemetry:
        engine.ir.reindex("Article:restart:body", "tennis final trophy")
        moved = telemetry.metrics.sum_counters("monetdb.rows_moved")
    assert moved == 0
    assert relations._base is base and len(relations._delta) == 3
    assert relations.stats()["pairs"] == pairs + 3


def test_a_replayed_wal_tail_compacts_nothing(restart):
    """The tail's new documents go to the delta, far below the base's
    size: the first read serves base plus delta and compacts nothing."""
    with telemetry_session() as telemetry:
        engine, relations = open_tier("snapshot", *restart, replay=True)
        assert len(relations._delta.docs) == TAIL_WRITES
        engine.execute(SearchRequest(query=QUERY, mode=MODE_FRAGMENTED))
        builds = telemetry.tracer.find_all("ir.postings_build")
        rebuilds = telemetry.metrics.sum_counters("ir.postings_rebuilds")
    assert (builds, rebuilds) == ([], 0)


def phrase_answers(engine) -> list:
    """Every schema-2 query's hits, scores and total, in both modes."""
    out = []
    for query in PHRASES:
        for mode in (MODE_CONTENT, MODE_FRAGMENTED):
            response = engine.execute(SearchRequest(
                query=query, mode=mode, schema_version=SCHEMA_VERSION_V2))
            out.append((query, mode, response.total,
                        [(hit.key, hit.score) for hit in response.hits]))
    return out


@pytest.mark.parametrize("size", [N, 4 * N], ids=["N", "4N"])
def test_a_write_after_a_restart_is_read_without_compaction(saved, size):
    """The read after one reindex — its remove drops the document from
    the loaded base, its add goes to the delta — compacts nothing and
    answers like a live engine that took the same write."""
    server, root = saved(size)
    restored, relations = open_tier("snapshot", server, root)
    _, live = live_engine(size)
    for engine in (restored, live):
        engine.ir.reindex(URL, REINDEXED)
    assert len(relations._delta.docs) == 1
    with telemetry_session() as telemetry:
        got = phrase_answers(restored)
        builds = telemetry.tracer.find_all("ir.postings_build")
    assert builds == []
    assert got == phrase_answers(live)
    removed, added = ({key for key, _ in got[row][3]} for row in (2, 4))
    assert URL not in removed and URL in added
