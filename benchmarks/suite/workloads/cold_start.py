"""``cold-start``: restart from disk, both the live and the static tier."""

from __future__ import annotations

import time

from repro.core.config import EngineConfig
from repro.core.engine import SearchEngine
from repro.offline import StaticIndexReader, export_index
from repro.persistence import load_engine
from repro.service import SearchRequest, SearchService
from repro.service.api import MODE_FRAGMENTED
from repro.wal import WriteAheadLog
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema

from benchmarks.suite import corpus
from benchmarks.suite.measure import QUERY, Measurement
from benchmarks.suite.trace import span_ms
from benchmarks.suite.workloads import (CheckFailed, Workload, median,
                                        tree_bytes)

TAIL_WRITES = 50
PROBES = 5
#: how often a traced run times load, verify and replay apart
SPLIT_LOADS = 3


def _answer(response) -> list[tuple[str, float]]:
    return [(hit.key, hit.score) for hit in response.hits]


class ColdStart(Workload):
    name = "cold-start"
    why = ("One restart cycle per operation: load_engine(snapshot + "
           "50-write WAL tail, verify) and StaticIndexReader(artifact), "
           "each to a first query; lazy rebuilds are paid, as users pay.")
    documents = 1000
    min_ops = 8

    def set_up(self) -> None:
        self.schema = australian_open_schema()
        self.server, _ = build_ausopen_site(
            players=8, articles=6, videos=2, frames_per_shot=4,
            seed=self.seed)
        engine = SearchEngine(self.schema, self.server,
                              EngineConfig(fragment_count=4))
        engine.populate()
        root = self.fresh_dir("disk")
        self.snapshot_dir, self.wal_dir = root / "snapshot", root / "wal"
        self.artifact_dir = root / "artifact"
        tail = [(url, f"{text} {corpus.marker(number)}")
                for number, (url, text) in enumerate(
                    corpus.documents(TAIL_WRITES, self.seed, "tail"))]
        with WriteAheadLog(self.wal_dir) as wal, \
                SearchService(engine, wal=wal) as service:
            for url, text in corpus.documents(self.documents, self.seed):
                service.reindex(url, text)
            started = time.perf_counter()
            service.snapshot(self.snapshot_dir)
            self.facts["save_ms"] = (time.perf_counter() - started) * 1e3
            for url, text in tail:
                service.reindex(url, text)
            self.tail_urls = [url for url, _ in tail]
            started = time.perf_counter()
            export_index(engine, self.artifact_dir)
            self.facts["export_ms"] = (time.perf_counter() - started) * 1e3
            self.probes = [
                SearchRequest(query=query, mode=MODE_FRAGMENTED)
                for _, query in zip(range(PROBES), corpus.distinct_bags(
                    self.seed, self.name))]
            # what the live engine answered before the "crash"
            self.expected = [_answer(service.search(probe))
                             for probe in self.probes]
            documents = engine.ir.relations.document_count()
        self.facts.update(
            snapshot_bytes=tree_bytes(self.snapshot_dir),
            wal_bytes=tree_bytes(self.wal_dir),
            artifact_bytes=tree_bytes(self.artifact_dir),
            documents=documents)
        self.facts["bytes_per_doc"] = (
            self.facts["snapshot_bytes"] + self.facts["wal_bytes"]
            + self.facts["artifact_bytes"]) / documents
        if not self._cycle().ok:
            raise CheckFailed("cold-start: restart lost or changed data")

    def _load(self, *, verify: bool, replay: bool):
        if not replay:
            return load_engine(self.snapshot_dir, self.schema, self.server,
                               verify=verify)
        with WriteAheadLog(self.wal_dir) as log:
            return load_engine(self.snapshot_dir, self.schema, self.server,
                               verify=verify, wal=log)

    def _restart(self):
        span = self.recorder.span
        with span("persistence/load_engine"):
            restored = self._load(verify=True, replay=True)
        with span("ir/first_query"):
            first_live = restored.execute(self.probes[0])
        with span("offline/static_load"):
            reader = StaticIndexReader(self.artifact_dir)
        with span("ir/first_query"):
            first_static = reader.execute(self.probes[0])
        return restored, reader, first_live, first_static

    def _cycle(self):
        sample, outcome = self.timed(QUERY, "suite/restart_cycle", None,
                                     self._restart)
        if outcome is None:
            return sample
        restored, reader, first_live, first_static = outcome
        same = _answer(first_live) == _answer(first_static) \
            == self.expected[0]
        for probe, expected in zip(self.probes[1:], self.expected[1:]):
            same = same and _answer(restored.execute(probe)) == expected \
                and _answer(reader.execute(probe)) == expected
        # every acknowledged tail write must be findable on both tiers
        found = all(
            restored.ir.relations.doc_oid(url) is not None
            and [hit.key for hit in reader.execute(SearchRequest(
                query=corpus.marker(number),
                mode=MODE_FRAGMENTED)).hits] == [url]
            for number, url in enumerate(self.tail_urls))
        sample.ok = same and found and restored.wal_seq \
            == self.documents + TAIL_WRITES
        return sample

    def units(self):
        return [lambda: [self._cycle()]]

    def layer_metrics(self, measurement: Measurement, telemetry,
                      prefix: int, report: dict) -> dict[str, float]:
        """Load, verification and replay each timed on their own: the
        difference of two whole loads is smaller than their noise."""
        from repro.persistence import Manifest, SnapshotStore, verify_files
        from repro.wal import replay_records

        store = SnapshotStore(self.snapshot_dir)
        newest = store.path(store.candidates()[0])
        manifest = Manifest.load(newest)
        load_ms, verify_ms, replay_ms = [], [], []
        for _ in range(SPLIT_LOADS):
            started = time.perf_counter()
            engine = self._load(verify=False, replay=False)
            load_ms.append((time.perf_counter() - started) * 1000.0)
            started = time.perf_counter()
            verify_files(newest, manifest)
            verify_ms.append((time.perf_counter() - started) * 1000.0)
            with WriteAheadLog(self.wal_dir) as log:
                started = time.perf_counter()
                replay_records(engine, log.records(after_seq=engine.wal_seq),
                               after_seq=engine.wal_seq)
                replay_ms.append((time.perf_counter() - started) * 1000.0)
        spans = self.recorder.spans
        return {
            "load_ms": median(load_ms),
            "verify_ms": median(verify_ms),
            "replay_ms": median(replay_ms),
            "static_load_ms": median(span_ms(spans, "offline/static_load")),
            "engine_ms": median(span_ms(spans, "ir/first_query")),
            "save_ms": self.facts["save_ms"],
            "export_ms": self.facts["export_ms"],
            "snapshot_bytes": self.facts["snapshot_bytes"],
            "artifact_bytes": self.facts["artifact_bytes"],
        }
