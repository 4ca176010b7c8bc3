"""One self-describing object on disk: the manifest every kind shares.

An *object* is a directory of checksummed data files plus its commit
record, ``manifest.json``, written *last*: its presence certifies that
every file it stamps was already written and fsynced.  Every object
holds the IR part ``ir.bats``
(:meth:`~repro.ir.relations.IrRelations.save`), and its manifest
records ``format_version`` (6; 1 was the flat snapshot, 2 JSON-lines
generations, 3 containers under ``engine.json``, 4 the positions as
one string per pair in a version 1 container, 5 the four pair relations as
BATs in a version 2 container, where 6 stores them as the
term-clustered postings segment in a version 3 one), ``kind``,
``generation`` and ``files`` — per-file SHA-256, size and record count,
so :func:`verify_files` catches truncation and bit-flips before a
record is read.  Each kind adds only what it needs:

* ``snapshot`` — one engine checkpoint (every store): ``schema``, the
  full ``config``, the store ``generations`` and the ``wal_seq`` it
  covers; ``generation`` is the checkpoint number;
* ``artifact`` — the static index: ``config`` and the ``analyzer``
  fingerprint; ``generation`` is the exported IR generation;
* ``node`` — a replica checkpoint of one cluster node: the op-log
  ``seq`` it covers; ``generation`` is the node's IR generation.

:meth:`Manifest.load` refuses another kind or format version with a
typed :class:`~repro.errors.SnapshotError` naming what it found, the
manifests older layouts kept under other names included.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import SnapshotError
from repro.core.config import EngineConfig, ExecutionPolicy
from repro.persistence.atomic import atomic_write_text, fsync_directory
from repro.persistence.snapshot import CURRENT_NAME

__all__ = ["FORMAT_VERSION", "MANIFEST_NAME", "IR_PART", "FileStamp",
           "Manifest", "sha256_file", "stamp_file", "verify_files",
           "save_ir_object", "config_to_dict", "config_from_dict"]

FORMAT_VERSION = 6
MANIFEST_NAME = "manifest.json"
#: the IR relations' container, the one data file every kind holds
IR_PART = "ir.bats"
#: where format 3 snapshots and format 2 artifacts kept their manifest;
#: read only to name their version in the refusal
_LEGACY_NAMES = ("engine.json", "index.json")
#: the fields each kind must record besides the common ones
_REQUIRED = {"snapshot": ("schema", "config", "generations"),
             "artifact": ("config", "analyzer"),
             "node": ("seq",)}


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class FileStamp:
    """Integrity stamp of one data file."""

    sha256: str
    bytes: int
    records: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FileStamp":
        try:
            return cls(sha256=str(data["sha256"]), bytes=int(data["bytes"]),
                       records=int(data["records"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed file stamp: {exc}") from exc


def stamp_file(path: str | Path, records: int) -> FileStamp:
    """Stamp a just-written data file (hash + size + record count)."""
    path = Path(path)
    return FileStamp(sha256=sha256_file(path),
                     bytes=path.stat().st_size, records=records)


def config_to_dict(config: EngineConfig) -> dict[str, Any]:
    """The full engine config, execution policy included."""
    data = asdict(config)
    data["execution"] = asdict(config.execution)
    return data


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    """The engine config a manifest records.  An older manifest names
    the ranking model; tf·idf, the one model, is dropped, any other is
    refused."""
    try:
        fields = dict(data)
        execution = ExecutionPolicy(**fields.pop("execution", {}))
        model = fields.pop("ranking_model", "tfidf")
        if model != "tfidf":
            raise ValueError(f"ranking_model {model!r} is not served; "
                             "the one ranking model is 'tfidf'")
        return EngineConfig(execution=execution, **fields)
    except (AttributeError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed engine config: {exc}") from exc


@dataclass
class Manifest:
    """The parsed ``manifest.json`` of one object of any kind."""

    generation: int
    kind: str = "snapshot"
    files: dict[str, FileStamp] = field(default_factory=dict)
    config: EngineConfig | None = None
    schema: str | None = None
    generations: dict[str, Any] | None = None
    # the last WAL seq a snapshot covers: recovery replays the tail
    # strictly past it (None for snapshots taken without a WAL)
    wal_seq: int | None = None
    analyzer: dict[str, Any] | None = None
    seq: int | None = None
    format_version: int = FORMAT_VERSION

    def to_dict(self) -> dict[str, Any]:
        data = {
            "format_version": self.format_version,
            "kind": self.kind,
            "generation": self.generation,
            "files": {name: stamp.to_dict()
                      for name, stamp in sorted(self.files.items())},
        }
        if self.config is not None:
            data["config"] = config_to_dict(self.config)
        for key in ("schema", "generations", "wal_seq", "analyzer", "seq"):
            if getattr(self, key) is not None:
                data[key] = getattr(self, key)
        return data

    def save(self, directory: str | Path) -> None:
        """Atomically write ``manifest.json`` (the commit record) last."""
        atomic_write_text(Path(directory) / MANIFEST_NAME,
                          json.dumps(self.to_dict(), indent=2,
                                     sort_keys=True))

    @classmethod
    def load(cls, directory: str | Path,
             kind: str = "snapshot") -> "Manifest":
        """Parse the manifest of a ``kind`` object in ``directory``."""
        directory = Path(directory)
        path = next((directory / name
                     for name in (MANIFEST_NAME, *_LEGACY_NAMES)
                     if (directory / name).exists()), None)
        if path is None:
            if kind != "snapshot" and (directory / CURRENT_NAME).exists():
                raise SnapshotError(
                    f"{directory} is a snapshot root, not a {kind!r} "
                    "object", path=directory)
            raise SnapshotError(f"no {kind} manifest in {directory} "
                                f"(missing {MANIFEST_NAME})", path=directory)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"unreadable manifest {path}: {exc}",
                                path=path) from exc
        if not isinstance(data, dict):
            raise SnapshotError(f"malformed manifest {path}", path=path)
        # the flat format 1 snapshot predates the field
        version = data.get("format_version", 1)
        if version != FORMAT_VERSION:
            raise SnapshotError(
                f"unsupported format_version {version!r} in {path} "
                f"(this build reads {FORMAT_VERSION})", path=path)
        if data.get("kind") != kind:
            raise SnapshotError(
                f"{directory} holds a {data.get('kind')!r} object, not "
                f"a {kind!r} one", path=path)
        missing = [key for key in ("generation", "files", *_REQUIRED[kind])
                   if key not in data]
        if missing:
            raise SnapshotError(f"malformed manifest {path}: no "
                                f"{', '.join(missing)}", path=path)
        try:
            fields = {key: data.get(key) for key in
                      ("schema", "generations", "analyzer", "wal_seq", "seq")}
            for key in ("wal_seq", "seq"):
                if fields[key] is not None:
                    fields[key] = int(fields[key])
            if "config" in data:
                fields["config"] = config_from_dict(data["config"])
            fields["generation"] = int(data["generation"])
            files = {name: FileStamp.from_dict(stamp)
                     for name, stamp in data["files"].items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed manifest {path}: {exc}",
                                path=path) from exc
        if IR_PART not in files:
            raise SnapshotError(f"manifest {path} lacks a stamp for "
                                f"{IR_PART}", path=path)
        return cls(kind=kind, files=files, **fields)


def verify_files(directory: str | Path, manifest: Manifest) -> None:
    """Check every manifest-listed file's existence, size and SHA-256.

    Raises :class:`SnapshotError` on the first truncated, grown, or
    bit-flipped file — *before* any record is deserialized, so a
    corrupt object can never half-load.
    """
    directory = Path(directory)
    for name, stamp in sorted(manifest.files.items()):
        path = directory / name
        if not path.exists():
            raise SnapshotError(f"data file missing: {path}", path=path)
        size = path.stat().st_size
        if size != stamp.bytes:
            raise SnapshotError(
                f"data file {path} is {size} bytes, manifest says "
                f"{stamp.bytes} (truncated or partially written)",
                path=path)
        digest = sha256_file(path)
        if digest != stamp.sha256:
            raise SnapshotError(
                f"data file {path} fails checksum verification "
                f"(expected {stamp.sha256[:12]}…, got {digest[:12]}…)",
                path=path)


def save_ir_object(relations, directory: str | Path, kind: str,
                   **fields) -> Manifest:
    """Write ``relations`` as one ``kind`` object: ``ir.bats``, then the
    manifest stamped with the relations' generation and ``fields``.

    Rewriting an object in place first removes its manifest, durably:
    an interrupted rewrite then leaves no manifest — not an object —
    instead of the old manifest over a new data file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    previous = directory / MANIFEST_NAME
    if previous.exists():
        previous.unlink()
        fsync_directory(directory)
    records = relations.save(directory / IR_PART)
    manifest = Manifest(
        kind=kind, generation=relations.generation,
        files={IR_PART: stamp_file(directory / IR_PART, records)},
        **fields)
    manifest.save(directory)
    return manifest
