"""The static index artifact format: layout constants and the manifest.

An exported index is one flat directory::

    index.json        the manifest — written last, the commit record
    postings.bats     ir:T, ir:DT:doc, ir:DT:term, ir:TF, ir:IDF
    positions.bats    ir:POS (phrase search)
    meta.bats         ir:D (doc-oid -> url)

The data files are :func:`~repro.monetdb.persistence.save_catalog`
column containers, each a subset of one catalog; ``index.json`` carries
the artifact ``format_version``, the newest request ``schema_version``
the artifact answers, the exporting index's ``generation``, the
analyzer fingerprint (:func:`~repro.ir.text.analyzer_config`), the full
:class:`~repro.core.config.EngineConfig` and a per-file SHA-256 / byte
/ association-count stamp
(:class:`~repro.persistence.manifest.FileStamp`).  The manifest is
written last through the atomic write path, so a directory either has
a manifest certifying complete data files or is not an artifact;
readers verify the stamps before deserializing a single column, and
each container checks its own sections too, so truncation and
bit-flips are typed :class:`~repro.errors.SnapshotError`\\ s, never
wrong answers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.config import EngineConfig
from repro.errors import SnapshotError
from repro.persistence.atomic import atomic_write_text
from repro.persistence.manifest import (FileStamp, config_from_dict,
                                        config_to_dict)

__all__ = ["OFFLINE_FORMAT_VERSION", "INDEX_MANIFEST", "ARTIFACT_FILES",
           "POSTINGS_FILE", "POSITIONS_FILE", "META_FILE",
           "POSTINGS_BATS", "POSITIONS_BATS", "META_BATS",
           "OfflineManifest"]

#: Bumped whenever the artifact layout changes; readers refuse other
#: versions with a typed error instead of guessing.
OFFLINE_FORMAT_VERSION = 2
INDEX_MANIFEST = "index.json"

POSTINGS_FILE = "postings.bats"
POSITIONS_FILE = "positions.bats"
META_FILE = "meta.bats"

#: Which IR relations land in which data file.  Postings carry the
#: scored access path, positions the phrase-match columns, meta the
#: document identity map — split so a consumer that never phrase-
#: searches can diff or ship the files independently.
POSTINGS_BATS = ("ir:T", "ir:DT:doc", "ir:DT:term", "ir:TF", "ir:IDF")
POSITIONS_BATS = ("ir:POS",)
META_BATS = ("ir:D",)

ARTIFACT_FILES = (POSTINGS_FILE, POSITIONS_FILE, META_FILE)


@dataclass
class OfflineManifest:
    """The parsed ``index.json`` of one static index artifact.

    ``files`` maps data-file name to its integrity stamp — the same
    :class:`FileStamp` the snapshot subsystem uses, so
    :func:`~repro.persistence.manifest.verify_files` applies verbatim.
    ``schema_version`` is the newest request dialect the artifact
    answers (readers still serve every older supported dialect).
    """

    generation: int
    config: EngineConfig
    analyzer: dict[str, Any]
    schema_version: int
    documents: int
    vocabulary: int
    files: dict[str, FileStamp] = field(default_factory=dict)
    format_version: int = OFFLINE_FORMAT_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": self.format_version,
            "schema_version": self.schema_version,
            "generation": self.generation,
            "analyzer": dict(self.analyzer),
            "config": config_to_dict(self.config),
            "documents": self.documents,
            "vocabulary": self.vocabulary,
            "files": {name: stamp.to_dict()
                      for name, stamp in sorted(self.files.items())},
        }

    def save(self, directory: str | Path) -> None:
        """Atomically write ``index.json`` (the commit record) last."""
        atomic_write_text(Path(directory) / INDEX_MANIFEST,
                          json.dumps(self.to_dict(), indent=2,
                                     sort_keys=True))

    @classmethod
    def load(cls, directory: str | Path) -> "OfflineManifest":
        path = Path(directory) / INDEX_MANIFEST
        if not path.exists():
            raise SnapshotError(
                f"no index artifact in {directory} (missing "
                f"{INDEX_MANIFEST})", path=path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"unreadable index manifest {path}: {exc}",
                                path=path) from exc
        if not isinstance(data, dict):
            raise SnapshotError(f"malformed index manifest {path}",
                                path=path)
        version = data.get("format_version")
        if version != OFFLINE_FORMAT_VERSION:
            raise SnapshotError(
                f"unsupported index artifact format_version {version!r} "
                f"in {path} (this reader speaks "
                f"{OFFLINE_FORMAT_VERSION})", path=path)
        try:
            files = {name: FileStamp.from_dict(stamp)
                     for name, stamp in data.get("files", {}).items()}
            return cls(generation=int(data["generation"]),
                       config=config_from_dict(data["config"]),
                       analyzer=dict(data["analyzer"]),
                       schema_version=int(data["schema_version"]),
                       documents=int(data["documents"]),
                       vocabulary=int(data["vocabulary"]),
                       files=files,
                       format_version=int(version))
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed index manifest {path}: {exc}",
                                path=path) from exc
