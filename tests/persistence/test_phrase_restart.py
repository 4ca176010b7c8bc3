"""Phrase answers survive a restart with a WAL tail.

A snapshot is taken, then documents holding a phrase's words are added,
reindexed and removed behind it.  ``load_engine(snapshot, wal)``, a
``StaticIndexReader`` over an artifact re-exported from the restored
engine, and the live engine must give identical schema-2 phrase answers
in content and fragmented modes — and keep giving them once further
writes make both engines patch their postings' position columns.  The
restored engine's first read patches the index its load installed.
"""

import pytest

from repro.offline import StaticIndexReader, export_index
from repro.persistence import load_engine
from repro.service import SearchRequest, SearchService
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2)
from repro.telemetry import telemetry_session
from repro.wal import WriteAheadLog
from repro.webspace.schema import australian_open_schema

from tests.persistence.conftest import build_engine

# a few dozen pairs, where the cost rule would build every read
pytestmark = [pytest.mark.persistence,
              pytest.mark.usefixtures("patch_whenever_possible")]

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


def answers(engine) -> list:
    """Every query's hits, scores and total, in both modes."""
    out = []
    for query in QUERIES:
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


def patched_answers(*engines) -> list:
    """Each engine's answers, asserting that the reads patched their
    postings index (one patch per engine) and built none."""
    with telemetry_session() as telemetry:
        out = [answers(engine) for engine in engines]
        patches = telemetry.tracer.find_all("ir.postings_patch")
        builds = telemetry.metrics.sum_counters("ir.postings_rebuilds")
    assert (len(patches), builds) == (len(engines), 0)
    return out


def test_phrase_answers_agree_across_a_restart_with_a_wal_tail(tmp_path):
    engine, server, _ = build_engine()
    schema = australian_open_schema()
    with WriteAheadLog(tmp_path / "wal") as wal, \
            SearchService(engine, wal=wal) as service:
        write(service, [("reindex", key, text) for key, text in BEFORE])
        service.snapshot(tmp_path / "snapshot")
        answers(engine)  # the live index is built: the tail patches it
        write(service, TAIL)
        live, = patched_answers(engine)
        with WriteAheadLog(tmp_path / "wal") as log:
            restored = load_engine(tmp_path / "snapshot", schema, server,
                                   wal=log)
        # the replayed tail journals against the loaded index
        assert patched_answers(restored) == [live]
        export_index(restored, tmp_path / "artifact")
        reader = StaticIndexReader(tmp_path / "artifact")
        assert answers(reader) == live
        # the tail's phrases are found, the removed document's are not
        found = {key for key, _ in live[0][3]}
        assert {url(1), url(3), url(4)} <= found and url(0) not in found
        # both engines hold an index; these writes patch them
        write(service, AFTER)
        write(restored.ir, AFTER)
        after, live_after = patched_answers(restored, engine)
        assert after == live_after != live
