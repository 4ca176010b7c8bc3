"""``export-index``: write one static index artifact from a live index.

The export is the offline tier's producer half: any populated engine —
the integrated :class:`~repro.core.engine.SearchEngine` or a bare
:class:`~repro.ir.engine.IrEngine` — writes its IR relations as an
``artifact`` object (:func:`~repro.persistence.manifest.save_ir_object`):
the IR part ``ir.bats`` first through the atomic write path, the
checksummed manifest last.  A re-export into the same directory first
removes the old manifest, so an interrupted export leaves either the
previous complete artifact or no manifest, never a torn one.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import QueryError
from repro.ir.text import analyzer_config
from repro.persistence.manifest import IR_PART, save_ir_object
from repro.telemetry.runtime import get_telemetry

__all__ = ["export_index"]


def _ir_engine(engine):
    """The single-node IR engine behind any exportable engine."""
    from repro.ir.engine import ClusterIrEngine, IrEngine

    ir = getattr(engine, "ir", engine)
    if isinstance(ir, ClusterIrEngine):
        raise QueryError(
            "clustered engines are not exportable: the static artifact "
            "is a single sequential scan surface; export from a "
            "single-node engine (cluster_size=1)")
    if not isinstance(ir, IrEngine):
        raise QueryError(
            "export_index needs a SearchEngine or IrEngine, got "
            f"{type(engine).__name__}")
    return ir


def _engine_config(engine, ir):
    """The full EngineConfig recorded in the manifest.

    A bare IrEngine has no EngineConfig; synthesize one from its one
    result-affecting knob so the reader rebuilds an identical engine.
    """
    from repro.core.config import EngineConfig

    config = getattr(engine, "config", None)
    if isinstance(config, EngineConfig):
        return config
    return EngineConfig(fragment_count=ir.fragment_count)


def export_index(engine, directory: str | Path) -> Path:
    """Write a static index artifact; returns the artifact directory.

    ``ir.bats`` lands first (atomic temp + fsync + replace; its
    ``ir:IDF`` is written from the document frequencies), and the
    manifest — format version, generation, analyzer fingerprint, full
    engine config, the SHA-256 stamp — commits the artifact last.
    """
    ir = _ir_engine(engine)
    relations = ir.relations
    directory = Path(directory)
    telemetry = get_telemetry()
    with telemetry.tracer.span("offline.export",
                               directory=str(directory)) as span:
        manifest = save_ir_object(relations, directory, "artifact",
                                  config=_engine_config(engine, ir),
                                  analyzer=analyzer_config())
        total_bytes = manifest.files[IR_PART].bytes
        span.set_attributes(generation=manifest.generation,
                            documents=relations.document_count(),
                            files=len(manifest.files) + 1, bytes=total_bytes)
    telemetry.metrics.counter("offline.exports").add(1)
    telemetry.metrics.counter("offline.export_bytes").add(total_bytes)
    return directory
