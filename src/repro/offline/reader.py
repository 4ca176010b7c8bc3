"""The zero-server consumer: query a static index artifact in place.

:class:`StaticIndexReader` memory-loads an :func:`~repro.offline.
export.export_index` artifact and answers the full schema-2
:class:`~repro.service.api.SearchRequest` surface — boolean, phrase,
fielded, boosted, faceted, sorted, paginated — with rankings
**bit-identical** to the live service over the same index generation.
The identity is by construction, not by re-implementation: the reader
restores the exported IR part into the same
:class:`~repro.ir.relations.IrRelations` and delegates to a private
:class:`~repro.ir.engine.IrEngine`, so every scoring path is the very
code the served engine runs.  What it deliberately lacks is everything
a *server* needs: no admission control, no locks, no HTTP — the
artifact is immutable, so a reader is a plain object any analytics
process can hold.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import SnapshotError
from repro.ir.engine import IrEngine
from repro.ir.relations import IrRelations
from repro.ir.text import analyzer_config
from repro.persistence.manifest import IR_PART, Manifest, verify_files
from repro.service.api import SCHEMA_VERSION_V2
from repro.telemetry.runtime import get_telemetry

__all__ = ["StaticIndexReader"]


class StaticIndexReader:
    """An immutable, dependency-light engine over one index artifact.

    Loading verifies the manifest (format version, kind, analyzer
    fingerprint) and the SHA-256 / size stamp of ``ir.bats`` before a
    single record is deserialized — a corrupted, version-skewed or
    wrong-kind object is always a typed
    :class:`~repro.errors.SnapshotError`, never a silently wrong
    ranking.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        telemetry = get_telemetry()
        with telemetry.tracer.span("offline.load",
                                   directory=str(self.directory)) as span:
            self.manifest = Manifest.load(self.directory, "artifact")
            live = analyzer_config()
            if self.manifest.analyzer != live:
                raise SnapshotError(
                    f"index artifact {self.directory} was built under a "
                    f"different analyzer ({self.manifest.analyzer!r}); "
                    f"this reader analyzes with {live!r} — queries "
                    "would miss silently", path=self.directory)
            verify_files(self.directory, self.manifest)
            # the artifact generation stamps the relations the same way
            # the live engine's are; the stored IDF column is checked
            # input, and idf is read off the segment's dfs, exactly as
            # on restore
            relations = IrRelations.load(self.directory / IR_PART,
                                         self.manifest.generation)
            config = self.manifest.config
            self._engine = IrEngine(fragment_count=config.fragment_count)
            self._engine.relations = relations
            span.set_attributes(generation=self.manifest.generation,
                                documents=relations.document_count())
        telemetry.metrics.counter("offline.loads").add(1)

    # -- querying ---------------------------------------------------------

    def execute(self, request) -> "SearchResponse":
        """Run one :class:`~repro.service.api.SearchRequest`.

        The same ``execute(request)`` contract every engine speaks —
        content and fragmented modes, v1 and schema-2 dialects;
        conceptual mode needs the integrated engine and raises
        :class:`~repro.errors.QueryError`, exactly as a bare IR engine
        does.
        """
        get_telemetry().metrics.counter("offline.requests").add(1)
        return self._engine.execute(request)

    # -- introspection ----------------------------------------------------

    @property
    def generation(self) -> int:
        """The exported index generation this reader answers for."""
        return self.manifest.generation

    def document_count(self) -> int:
        return self._engine.relations.document_count()

    def vocabulary_size(self) -> int:
        return self._engine.relations.vocabulary_size()

    def stats(self) -> dict[str, object]:
        """A JSON-friendly summary (CLI + benchmark reporting)."""
        return {
            "directory": str(self.directory),
            "format_version": self.manifest.format_version,
            "schema_version": SCHEMA_VERSION_V2,
            "generation": self.manifest.generation,
            "documents": self.document_count(),
            "vocabulary": self.vocabulary_size(),
            "bytes": sum(stamp.bytes
                         for stamp in self.manifest.files.values()),
        }
