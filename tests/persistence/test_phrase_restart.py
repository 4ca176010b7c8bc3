"""Phrase answers survive a restart with a WAL tail.

A snapshot is taken, then documents holding a phrase's words are added,
reindexed and removed behind it.  ``load_engine(snapshot, wal)``, a
``StaticIndexReader`` over an artifact re-exported from the restored
engine, and the live engine must give identical schema-2 phrase answers
in content and fragmented modes — and keep giving them once further
writes put more postings in both engines' deltas.  The restored
engine's first read serves its loaded base plus the replayed tail,
compacting nothing.  A save between two reads of one generation
changes neither read's answers.
"""

import pytest

from repro.offline import StaticIndexReader, export_index
from repro.persistence import load_engine, save_engine
from repro.service import SearchRequest, SearchService
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2)
from repro.telemetry import telemetry_session
from repro.wal import WriteAheadLog
from repro.webspace.schema import australian_open_schema

from tests.persistence.conftest import build_engine

pytestmark = pytest.mark.persistence

QUERIES = ('"grand slam"', '"grand slam title"', '"slam grand"',
           '"title defence"', 'champion AND "grand slam"',
           '"grand slam" OR "title defence"', 'NOT "grand slam" AND title')


def url(number: int) -> str:
    return f"Article:phrase{number}:body"


BEFORE = [(url(0), "a grand slam title for the champion"),
          (url(1), "the slam was grand and the title defence long"),
          (url(2), "title defence at a grand slam grand slam")]
TAIL = [("reindex", url(3), "grand slam title defence champion"),
        ("reindex", url(1), "no grand slam here only a title"),
        ("remove", url(0), None),
        ("reindex", url(4), "slam grand title grand slam")]
AFTER = [("reindex", url(5), "the grand slam title defence"),
         ("remove", url(2), None),
         ("reindex", url(3), "grand grand slam slam")]


def answers(engine, queries=QUERIES) -> list:
    """Every query's hits, scores and total, in both modes."""
    out = []
    for query in queries:
        for mode in (MODE_CONTENT, MODE_FRAGMENTED):
            response = engine.execute(SearchRequest(
                query=query, mode=mode, schema_version=SCHEMA_VERSION_V2))
            out.append((query, mode, response.total,
                        [(hit.key, hit.score) for hit in response.hits]))
    return out


def write(target, steps) -> None:
    for op, key, text in steps:
        if op == "remove":
            target.remove(key)
        else:
            target.reindex(key, text)


def delta_answers(*engines) -> list:
    """Each engine's answers, asserting that the reads were served over
    a delta and compacted nothing."""
    with telemetry_session() as telemetry:
        out = [answers(engine) for engine in engines]
        builds = telemetry.metrics.sum_counters("ir.postings_rebuilds")
    assert builds == 0
    assert all(len(engine.ir.relations._delta) for engine in engines)
    return out


def test_phrase_answers_agree_across_a_restart_with_a_wal_tail(tmp_path):
    engine, server, _ = build_engine()
    schema = australian_open_schema()
    with WriteAheadLog(tmp_path / "wal") as wal, \
            SearchService(engine, wal=wal) as service:
        write(service, [("reindex", key, text) for key, text in BEFORE])
        service.snapshot(tmp_path / "snapshot")
        answers(engine)  # a read between the save and the tail
        write(service, TAIL)
        live, = delta_answers(engine)
        with WriteAheadLog(tmp_path / "wal") as log:
            restored = load_engine(tmp_path / "snapshot", schema, server,
                                   wal=log)
        # the replayed tail is a delta over the loaded base
        assert delta_answers(restored) == [live]
        export_index(restored, tmp_path / "artifact")
        reader = StaticIndexReader(tmp_path / "artifact")
        assert answers(reader) == live
        # the tail's phrases are found, the removed document's are not
        found = {key for key, _ in live[0][3]}
        assert {url(1), url(3), url(4)} <= found and url(0) not in found
        # both engines hold a delta; these writes add to it
        write(service, AFTER)
        write(restored.ir, AFTER)
        after, live_after = delta_answers(restored, engine)
        assert after == live_after != live


@pytest.mark.parametrize("save", [save_engine, export_index],
                         ids=["snapshot", "export"])
def test_a_save_between_two_reads_of_a_generation_moves_no_slot(tmp_path,
                                                               save):
    """A save writes the base merged with the delta without installing
    it: after a base and a delta remove left dead slots, a schema-2
    read, a save and another schema-2 read at the same generation answer
    like an engine that was never saved (the fragment set cached by the
    first read indexes the slots the second read's masks use)."""
    saved, twin = build_engine()[0], build_engine()[0]
    for engine in (saved, twin):
        relations = engine.ir.relations
        base_url = sorted(relations._doc_oids)[0]
        write(engine.ir, [("reindex", key, text) for key, text in BEFORE])
        answers(engine, QUERIES[:1])  # the populated base is compacted
        write(engine.ir, [("remove", base_url, None),
                          ("remove", url(0), None)])
        assert len(relations._slot_of) < len(relations._doc_ids)
        answers(engine, QUERIES[:1])
    generation = saved.ir.relations.generation
    save(saved, tmp_path / "saved")
    assert saved.ir.relations.generation == generation
    assert answers(saved, QUERIES[1:]) == answers(twin, QUERIES[1:])
