"""Crash recovery: snapshot + tail replay, exactly once, torn tails."""

import pytest

from repro.persistence import SnapshotStore, load_engine
from repro.service import SearchService
from repro.telemetry import telemetry_session
from repro.wal import WriteAheadLog
from repro.wal.record import HEADER_BYTES, Record, encode_record
from repro.webspace.schema import australian_open_schema

from tests.wal.conftest import build_engine

pytestmark = pytest.mark.wal

QUERY = "SELECT p.name FROM Player p WHERE " \
        "p.history CONTAINS 'Winner' TOP 20"


def _counter_total(counters, name):
    return sum(value for key, value in counters.items()
               if key == name or key.startswith(name + "{"))


def _reload(root, server, wal, **kwargs):
    return load_engine(root, australian_open_schema(), server,
                       wal=wal, **kwargs)


def _active_segment(wal_root):
    return sorted(wal_root.iterdir())[-1]


class TestTailReplay:
    def test_acknowledged_writes_survive_a_crash(self, tmp_path):
        engine, server, _ = build_engine()
        root, wal_root = tmp_path / "snap", tmp_path / "wal"
        with WriteAheadLog(wal_root) as wal:
            service = SearchService(engine, wal=wal)
            service.snapshot(root)
            service.reindex("doc:crash", "champion trophy crash recovery")
            service.reindex("doc:crash2", "grand slam final set")
            acked = wal.last_seq
        # crash: the in-memory engine is simply abandoned
        with WriteAheadLog(wal_root) as wal:
            restored = _reload(root, server, wal)
        assert restored.wal_seq == acked
        assert restored.ir.relations.doc_oid("doc:crash") is not None
        assert restored.ir.relations.doc_oid("doc:crash2") is not None
        assert restored.query_text(QUERY).rows  # still query-ready

    def test_remove_replays_too(self, tmp_path):
        engine, server, _ = build_engine()
        root, wal_root = tmp_path / "snap", tmp_path / "wal"
        with WriteAheadLog(wal_root) as wal:
            service = SearchService(engine, wal=wal)
            service.reindex("doc:gone", "soon to be removed")
            service.snapshot(root)
            service.remove("doc:gone")
        with WriteAheadLog(wal_root) as wal:
            restored = _reload(root, server, wal)
        assert restored.ir.relations.doc_oid("doc:gone") is None

    def test_replay_is_exactly_once_past_the_snapshot(self, tmp_path):
        """Writes covered by the snapshot are not re-applied: only the
        tail past the manifest's ``wal_seq`` replays."""
        engine, server, _ = build_engine()
        root, wal_root = tmp_path / "snap", tmp_path / "wal"
        with WriteAheadLog(wal_root) as wal:
            service = SearchService(engine, wal=wal)
            service.reindex("doc:covered", "inside the checkpoint")
            service.snapshot(root)
            service.reindex("doc:tail", "past the checkpoint")
        with telemetry_session() as telemetry:
            with WriteAheadLog(wal_root) as wal:
                restored = _reload(root, server, wal)
            counters = telemetry.metrics.snapshot()["counters"]
        assert _counter_total(counters, "wal.replays") == 1
        assert restored.ir.relations.doc_oid("doc:covered") is not None
        assert restored.ir.relations.doc_oid("doc:tail") is not None

    def test_recovered_engine_matches_the_survivor(self, tmp_path):
        """Recovery state == the pre-crash engine's state, query for
        query (the acid test of redo-only replay)."""
        engine, server, _ = build_engine()
        root, wal_root = tmp_path / "snap", tmp_path / "wal"
        with WriteAheadLog(wal_root) as wal:
            service = SearchService(engine, wal=wal)
            service.snapshot(root)
            service.reindex("doc:p0", "trophy trophy trophy champion")
            service.remove("doc:p0")
            service.reindex("doc:p1", "winner of the final")
            expected = engine.query_text(QUERY)
        with WriteAheadLog(wal_root) as wal:
            restored = _reload(root, server, wal)
        recovered = restored.query_text(QUERY)
        assert [(row.keys, row.score) for row in recovered.rows] \
            == [(row.keys, row.score) for row in expected.rows]
        assert restored.ir.relations.document_count() \
            == engine.ir.relations.document_count()


class TestTornTails:
    """Crash mid-append: the on-disk tail is short or corrupt."""

    def _crashed(self, tmp_path):
        engine, server, _ = build_engine()
        root, wal_root = tmp_path / "snap", tmp_path / "wal"
        with WriteAheadLog(wal_root) as wal:
            service = SearchService(engine, wal=wal)
            service.snapshot(root)
            service.reindex("doc:intact", "fully acknowledged write")
        return root, wal_root, server

    def test_truncated_tail_recovers_to_last_intact_record(self, tmp_path):
        root, wal_root, server = self._crashed(tmp_path)
        segment = _active_segment(wal_root)
        torn = encode_record(Record(99, "reindex",
                                    {"url": "doc:torn", "text": "x"}))
        with segment.open("ab") as stream:
            stream.write(torn[:HEADER_BYTES + 5])  # crash mid-payload
        with telemetry_session() as telemetry:
            with WriteAheadLog(wal_root) as wal:
                assert wal.last_seq == 1  # the intact acknowledged write
                restored = _reload(root, server, wal)
            counters = telemetry.metrics.snapshot()["counters"]
        assert counters["wal.torn_records{reason=truncated_payload}"] == 1
        assert restored.ir.relations.doc_oid("doc:intact") is not None
        assert restored.ir.relations.doc_oid("doc:torn") is None

    def test_bit_flipped_tail_recovers_to_last_intact_record(self, tmp_path):
        root, wal_root, server = self._crashed(tmp_path)
        segment = _active_segment(wal_root)
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0x40
        segment.write_bytes(bytes(data))
        with telemetry_session() as telemetry:
            with WriteAheadLog(wal_root) as wal:
                restored = _reload(root, server, wal)
            counters = telemetry.metrics.snapshot()["counters"]
        assert counters["wal.torn_records{reason=checksum}"] == 1
        # the flipped record (the acknowledged write) is lost from the
        # log, but the snapshot state is intact and the engine loads
        assert restored.ir.relations.doc_oid("doc:torn") is None
        assert restored.query_text(QUERY).rows

    def test_short_header_tail_is_silently_cut(self, tmp_path):
        root, wal_root, server = self._crashed(tmp_path)
        segment = _active_segment(wal_root)
        with segment.open("ab") as stream:
            stream.write(b"\x00\x00\x00")  # crash mid-header
        with WriteAheadLog(wal_root) as wal:
            restored = _reload(root, server, wal)
            # the truncation leaves a clean tail: appends continue
            assert wal.append("remove", {"url": "doc:intact"}) \
                == restored.wal_seq + 1
        assert restored.ir.relations.doc_oid("doc:intact") is not None


class TestFallbackGeneration:
    def test_fallback_load_replays_the_longer_tail(self, tmp_path):
        """Checkpoint truncation follows the *oldest retained*
        checkpoint, so an ``on_corrupt='fallback'`` load of an older
        generation still finds every record it needs."""
        engine, server, _ = build_engine()
        root, wal_root = tmp_path / "snap", tmp_path / "wal"
        with WriteAheadLog(wal_root) as wal:
            service = SearchService(engine, wal=wal)
            service.snapshot(root)
            service.reindex("doc:old-tail", "written after checkpoint one")
            service.snapshot(root)
            service.reindex("doc:new-tail", "written after checkpoint two")
        store = SnapshotStore(root)
        newest = store.path(store.current_generation())
        target = newest / "ir.bats"
        target.write_bytes(target.read_bytes()[:-7])  # corrupt newest
        with WriteAheadLog(wal_root) as wal:
            restored = _reload(root, server, wal, on_corrupt="fallback")
        # the older generation + the longer tail reach the same state
        assert restored.ir.relations.doc_oid("doc:old-tail") is not None
        assert restored.ir.relations.doc_oid("doc:new-tail") is not None


class TestReplaySkips:
    def test_deterministically_refailing_op_is_skipped(self, tmp_path):
        """Log-before-apply logs ops that then fail; replay refails
        them deterministically and keeps going."""
        engine, server, _ = build_engine()
        root, wal_root = tmp_path / "snap", tmp_path / "wal"
        with WriteAheadLog(wal_root) as wal:
            service = SearchService(engine, wal=wal)
            service.snapshot(root)
            with pytest.raises(Exception):
                service.remove("doc:never-indexed")
            service.reindex("doc:after", "a later acknowledged write")
        with telemetry_session() as telemetry:
            with WriteAheadLog(wal_root) as wal:
                restored = _reload(root, server, wal)
            counters = telemetry.metrics.snapshot()["counters"]
        assert counters["wal.replay_skipped{op=remove}"] == 1
        assert restored.ir.relations.doc_oid("doc:after") is not None
        assert restored.wal_seq == 2
