"""The snapshot manifest: format version, checksums, generations, config.

``engine.json`` is written *last* inside a generation directory, so its
presence certifies that every data file it describes was already
written and fsynced.  It carries:

* ``format_version`` — bumped when the snapshot layout changes (the
  flat pre-retention layout is version 1, JSON-lines generations are
  version 2; this layer writes version 3: column containers),
* ``files`` — per-file SHA-256, byte size and record count, so
  :func:`verify_files` detects truncation and bit-flips before a single
  record is deserialized,
* ``generations`` — the store generation stamps at save time, restored
  on load so generation-keyed caches stay coherent across a restart,
* ``config`` — the *full* :class:`~repro.core.config.EngineConfig`,
  execution policy included (the old manifest silently dropped
  ``cluster_size`` and ``execution``, restoring clustered engines
  single-node).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import SnapshotError
from repro.core.config import EngineConfig, ExecutionPolicy
from repro.persistence.atomic import atomic_write_text

__all__ = ["FORMAT_VERSION", "MANIFEST_NAME", "FileStamp", "Manifest",
           "sha256_file", "stamp_file", "verify_files",
           "config_to_dict", "config_from_dict"]

FORMAT_VERSION = 3
MANIFEST_NAME = "engine.json"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class FileStamp:
    """Integrity stamp of one snapshot file."""

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
    """Stamp a just-written snapshot file (hash + size + record count)."""
    path = Path(path)
    return FileStamp(sha256=sha256_file(path),
                     bytes=path.stat().st_size, records=records)


def config_to_dict(config: EngineConfig) -> dict[str, Any]:
    """The full engine config, execution policy included."""
    data = asdict(config)
    data["execution"] = asdict(config.execution)
    return data


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    try:
        execution = ExecutionPolicy(**data.get("execution", {}))
        fields = {key: value for key, value in data.items()
                  if key != "execution"}
        return EngineConfig(execution=execution, **fields)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed engine config: {exc}") from exc


@dataclass
class Manifest:
    """The parsed ``engine.json`` of one snapshot generation."""

    schema: str
    config: EngineConfig
    generation: int
    files: dict[str, FileStamp] = field(default_factory=dict)
    generations: dict[str, Any] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION
    # the last write-ahead-log sequence number this checkpoint covers;
    # recovery replays the WAL tail strictly past it.  None for
    # snapshots taken without a WAL attached
    wal_seq: int | None = None

    def to_dict(self) -> dict[str, Any]:
        data = {
            "format_version": self.format_version,
            "schema": self.schema,
            "generation": self.generation,
            "config": config_to_dict(self.config),
            "generations": self.generations,
            "files": {name: stamp.to_dict()
                      for name, stamp in sorted(self.files.items())},
        }
        if self.wal_seq is not None:
            data["wal_seq"] = self.wal_seq
        return data

    def save(self, directory: str | Path) -> None:
        """Atomically write ``engine.json`` (the commit record) last."""
        atomic_write_text(Path(directory) / MANIFEST_NAME,
                          json.dumps(self.to_dict(), indent=2,
                                     sort_keys=True))

    @classmethod
    def load(cls, directory: str | Path) -> "Manifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise SnapshotError(f"no snapshot manifest in {directory}",
                                path=path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"unreadable snapshot manifest {path}: "
                                f"{exc}", path=path) from exc
        if not isinstance(data, dict):
            raise SnapshotError(f"malformed snapshot manifest {path}",
                                path=path)
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot format_version {version!r} in "
                f"{path} (expected {FORMAT_VERSION})", path=path)
        try:
            files = {name: FileStamp.from_dict(stamp)
                     for name, stamp in data.get("files", {}).items()}
            wal_seq = data.get("wal_seq")
            return cls(schema=str(data["schema"]),
                       config=config_from_dict(data["config"]),
                       generation=int(data["generation"]),
                       files=files,
                       generations=dict(data.get("generations", {})),
                       format_version=int(version),
                       wal_seq=None if wal_seq is None else int(wal_seq))
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot manifest {path}: "
                                f"{exc}", path=path) from exc


def verify_files(directory: str | Path, manifest: Manifest) -> None:
    """Check every manifest-listed file's existence, size and SHA-256.

    Raises :class:`SnapshotError` on the first truncated, grown, or
    bit-flipped file — *before* any record is deserialized, so a
    corrupt snapshot can never half-load.
    """
    directory = Path(directory)
    for name, stamp in sorted(manifest.files.items()):
        path = directory / name
        if not path.exists():
            raise SnapshotError(f"snapshot file missing: {path}", path=path)
        size = path.stat().st_size
        if size != stamp.bytes:
            raise SnapshotError(
                f"snapshot file {path} is {size} bytes, manifest says "
                f"{stamp.bytes} (truncated or partially written)",
                path=path)
        digest = sha256_file(path)
        if digest != stamp.sha256:
            raise SnapshotError(
                f"snapshot file {path} fails checksum verification "
                f"(expected {stamp.sha256[:12]}…, got {digest[:12]}…)",
                path=path)
