"""Crash-safe engine snapshots: save a populated index, reload it query-ready.

Monet is a persistent main-memory system; our equivalent is explicit
checkpoints, made crash-safe by three cooperating mechanisms:

1. **Atomic writes everywhere** — every file goes through temp +
   ``fsync`` + ``os.replace`` (:mod:`repro.persistence.atomic`), and the
   manifest is written *last*, so a checkpoint directory is either
   complete (manifest present, all files verified) or ignorable.
2. **A versioned, checksummed manifest** — a ``snapshot``-kind
   ``manifest.json`` carries a ``format_version``, per-file SHA-256 +
   size + record counts, the store generation stamps and the *full*
   :class:`~repro.core.config.EngineConfig`
   (:mod:`repro.persistence.manifest`); loaders detect truncation and
   bit-flips with a typed :class:`~repro.errors.SnapshotError` before
   deserializing a single record.
3. **Retention behind a ``CURRENT`` pointer** — checkpoints live in
   ``snapshot/<generation>/`` directories published by one atomic
   pointer flip (:mod:`repro.persistence.snapshot`); ``load_engine``'s
   ``on_corrupt="fallback"`` degrades to the newest older intact
   checkpoint, mirroring the cluster layer's ``on_failure`` semantics.

The snapshot also carries the FDS's maintenance state (stored parse
trees, source stamps, observed detector versions —
:mod:`repro.persistence.fdsstate`), so a reloaded engine resumes
*incremental* maintenance: a detector bump after restore schedules only
the revalidations it warrants instead of a full re-populate.

Every catalog file is a :mod:`repro.monetdb.persistence` column
container (``*.bats``); the IR part, ``ir.bats``, is the same file a
static artifact and a replica checkpoint hold
(:meth:`~repro.ir.relations.IrRelations.save` /
:meth:`~repro.ir.relations.IrRelations.load`).  Older layouts — the
flat format 1 directory, format 2 JSON-lines generations, format 3
generations under ``engine.json`` — and objects of another kind are
refused with a typed :class:`~repro.errors.SnapshotError` naming their
version or kind.
"""

from __future__ import annotations

from pathlib import Path
from shutil import rmtree

from repro.errors import CatalogError, SnapshotError
from repro.ir.relations import IrRelations
from repro.telemetry.runtime import get_telemetry
from repro.web.site import SimulatedWebServer
from repro.webspace.schema import WebspaceSchema
from repro.core.engine import SearchEngine
from repro.persistence.atomic import atomic_write_text
from repro.persistence.fdsstate import (FDS_STATE_NAME, dump_fds_state,
                                        load_fds_state, restore_fds_state)
from repro.persistence.manifest import (IR_PART, MANIFEST_NAME, Manifest,
                                        stamp_file, verify_files)
from repro.persistence.snapshot import SnapshotStore

__all__ = ["save_engine", "load_engine"]

_CONCEPTUAL = "conceptual.bats"
_META = "meta.bats"


def _node_file(name: str) -> str:
    return f"ir-{name}.bats"


def _is_clustered(engine: SearchEngine) -> bool:
    from repro.ir.engine import ClusterIrEngine
    return isinstance(engine.ir, ClusterIrEngine)


# ---------------------------------------------------------------------------
# saving
# ---------------------------------------------------------------------------

def save_engine(engine: SearchEngine, directory: str | Path,
                keep: int = 3, *, wal_seq: int | None = None) -> Path:
    """Checkpoint a populated engine; returns the generation directory.

    The snapshot root keeps the last ``keep`` checkpoints; readers see
    either the previous complete checkpoint or the new complete one —
    an interrupted save never corrupts what ``CURRENT`` points at.

    ``wal_seq`` records the last write-ahead-log sequence number this
    checkpoint covers (the service passes its WAL's ``last_seq`` while
    holding the write lock), so recovery knows where tail replay
    starts.
    """
    store = SnapshotStore(directory, keep=keep)
    telemetry = get_telemetry()
    with telemetry.tracer.span("snapshot.save",
                               directory=str(directory)) as span:
        generation, path = store.begin()
        try:
            files = _write_payload(engine, path)
            manifest = Manifest(
                schema=engine.schema.name,
                config=engine.config,
                generation=generation,
                files=files,
                generations=_generation_stamps(engine),
                wal_seq=wal_seq,
            )
            manifest.save(path)
            store.commit(generation)
        except BaseException:
            # the checkpoint was never published: drop the partial
            # generation directory, CURRENT still names the previous one
            rmtree(path, ignore_errors=True)
            raise
        total_bytes = sum(stamp.bytes for stamp in files.values()) \
            + (path / MANIFEST_NAME).stat().st_size
        span.set_attributes(generation=generation, files=len(files) + 1,
                            bytes=total_bytes)
    telemetry.metrics.counter("snapshot.saves").add(1)
    telemetry.metrics.counter("snapshot.bytes").add(total_bytes)
    return path


def _write_payload(engine: SearchEngine, path: Path) -> dict:
    """Write every data file of one checkpoint; returns name -> stamp."""
    files = {}

    def record(name: str, records: int) -> None:
        files[name] = stamp_file(path / name, records)

    record(_CONCEPTUAL, engine.conceptual_store.save(path / _CONCEPTUAL))
    record(_META, engine.meta_store.save(path / _META))
    record(IR_PART, engine.ir.relations.save(path / IR_PART))
    if _is_clustered(engine):
        for name, relations in engine.ir.index.nodes.items():
            record(_node_file(name),
                   relations.save(path / _node_file(name)))
    state = dump_fds_state(engine.fds)
    atomic_write_text(path / FDS_STATE_NAME, state)
    files[FDS_STATE_NAME] = stamp_file(path / FDS_STATE_NAME,
                                       len(engine.fds))
    return files


def _generation_stamps(engine: SearchEngine) -> dict:
    """The store generation stamps, round-tripped so caches stay valid."""
    stamps = {
        "conceptual": engine.conceptual_store.generation,
        "meta": engine.meta_store.generation,
        "ir": engine.ir.relations.generation,
        "ir_nodes": {},
    }
    if _is_clustered(engine):
        stamps["ir_nodes"] = {
            name: relations.generation
            for name, relations in engine.ir.index.nodes.items()}
    return stamps


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def load_engine(directory: str | Path, schema: WebspaceSchema,
                server: SimulatedWebServer, extractor=None, *,
                on_corrupt: str = "raise",
                verify: bool = True, wal=None) -> SearchEngine:
    """Restore a query-ready engine from a snapshot root.

    The caller supplies the schema object and the (simulated) web
    server; the manifest's schema name must match.  Integrity is
    verified against the manifest checksums before anything is
    deserialized; a corrupt checkpoint raises :class:`SnapshotError`
    under ``on_corrupt="raise"`` or degrades to the newest older intact
    checkpoint under ``on_corrupt="fallback"``.

    With a :class:`~repro.wal.WriteAheadLog` passed as ``wal``, every
    intact log record past the loaded manifest's ``wal_seq`` is
    replayed onto the restored engine before it is returned — crash
    recovery for acknowledged writes since the checkpoint.
    """
    if on_corrupt not in ("raise", "fallback"):
        raise ValueError("on_corrupt must be 'raise' or 'fallback', "
                         f"got {on_corrupt!r}")
    directory = Path(directory)
    store = SnapshotStore(directory)
    telemetry = get_telemetry()
    with telemetry.tracer.span("snapshot.load",
                               directory=str(directory)) as span:
        try:
            candidates = store.candidates()
        except SnapshotError:
            if on_corrupt == "raise":
                raise
            telemetry.metrics.counter("snapshot.corruptions").add(1)
            # a torn CURRENT pointer: fall back over every on-disk
            # generation, newest first
            candidates = sorted(store.generations(), reverse=True)
        if not candidates:
            # names what the directory holds instead: an object of
            # another kind, an older format, or nothing at all
            Manifest.load(directory)
            raise SnapshotError(f"{directory} is one snapshot generation, "
                                "not a snapshot root", path=directory)
        last_error: SnapshotError | None = None
        for attempt, generation in enumerate(candidates):
            try:
                engine = _load_generation(store.path(generation), schema,
                                          server, extractor, verify)
            except SnapshotError as exc:
                telemetry.metrics.counter("snapshot.corruptions").add(1)
                if on_corrupt == "raise":
                    raise
                last_error = exc
                continue
            engine.snapshot_generation = generation
            span.set_attributes(generation=generation,
                                fallback=attempt > 0)
            if attempt > 0:
                telemetry.metrics.counter("snapshot.fallbacks").add(1)
            telemetry.metrics.counter("snapshot.loads").add(1)
            if wal is not None:
                _replay_wal_tail(engine, wal, span)
            return engine
        raise SnapshotError(
            f"no intact snapshot in {directory}: all "
            f"{len(candidates)} generations failed verification "
            f"(last error: {last_error})", path=directory)


def _replay_wal_tail(engine: SearchEngine, wal, span) -> None:
    """Redo every intact WAL record past the snapshot's coverage.

    A fallback load (older generation, smaller ``wal_seq``) replays a
    correspondingly longer tail — the log is the source of truth for
    everything after whichever checkpoint survived.
    """
    from repro.wal.replay import replay_records

    after = engine.wal_seq or 0
    outcome = replay_records(engine, wal.records(after_seq=after),
                             after_seq=after)
    engine.wal_seq = outcome["last_seq"]
    span.set_attributes(wal_applied=outcome["applied"],
                        wal_skipped=outcome["skipped"],
                        wal_seq=outcome["last_seq"])


def _load_generation(path: Path, schema: WebspaceSchema,
                     server: SimulatedWebServer, extractor,
                     verify: bool) -> SearchEngine:
    from repro.xmlstore.store import XmlStore
    from repro.core.translate import ConceptualIndex

    manifest = Manifest.load(path)
    if manifest.schema != schema.name:
        # a caller error, not corruption: never falls back
        raise CatalogError(f"snapshot is for schema {manifest.schema!r}, "
                           f"got {schema.name!r}")
    if verify:
        verify_files(path, manifest)
    engine = SearchEngine(schema, server, manifest.config,
                          extractor=extractor)
    try:
        # reuse the engine's own servers (XmlStore.load swaps their
        # catalog): their telemetry counters stay the one
        # "conceptual"/"meta" instrument instead of colliding with
        # freshly created duplicates
        engine.conceptual_store = XmlStore.load(
            path / _CONCEPTUAL, engine.conceptual_store.server)
        engine.meta_store = XmlStore.load(path / _META,
                                          engine.meta_store.server)
        stamps = manifest.generations
        engine.conceptual_store.generation = int(stamps.get("conceptual", 0))
        engine.meta_store.generation = int(stamps.get("meta", 0))
        _restore_ir(engine, path, stamps)
        state = load_fds_state(
            (path / FDS_STATE_NAME).read_text(encoding="utf-8"))
        restore_fds_state(engine.fds, state)
        _reattach_media(engine)
    except SnapshotError:
        raise
    except (CatalogError, OSError, TypeError, ValueError, KeyError) as exc:
        raise SnapshotError(f"snapshot {path} failed to load: {exc}",
                            path=path) from exc
    # rebind the conceptual index to the restored store
    engine._index = ConceptualIndex(engine.conceptual_store)
    engine.wal_seq = manifest.wal_seq
    return engine


def _reattach_media(engine: SearchEngine) -> None:
    """Re-attach the raw media library from the live server.

    The raw multimedia data is external to the DBMS by design, so it is
    not part of the snapshot; without it a restored scheduler could not
    re-run a single detector and every revalidation would escalate to a
    (failing) full regeneration.
    """
    from repro.web.crawler import crawl

    result = crawl(engine.server, seed=engine.config.crawl_seed)
    for resource in result.media:
        if resource.mime[0] in ("video", "audio") \
                and resource.payload is not None:
            engine.video_library.add(resource.payload, resource.mime)
        elif resource.url not in engine.video_library:
            engine.video_library.add_non_video(resource.url, resource.mime)


def _restore_ir(engine: SearchEngine, path: Path, stamps: dict) -> None:
    relations = IrRelations.load(path / IR_PART, int(stamps.get("ir", 0)))
    if not _is_clustered(engine):
        engine.ir.relations = relations
        return
    engine.ir.index.central = relations
    node_stamps = stamps.get("ir_nodes", {})
    cluster = engine.ir.cluster
    for position, monet in enumerate(cluster.servers):
        node = IrRelations.load(
            path / _node_file(monet.name),
            int(node_stamps.get(monet.name, 0)),
            oid_start=position, oid_stride=len(cluster))
        monet.catalog = node.catalog
        engine.ir.index.nodes[monet.name] = node
