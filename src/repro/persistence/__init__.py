"""Crash-safe snapshot & recovery for the three-level engine.

The subsystem layers four modules:

* :mod:`repro.persistence.atomic` — temp + fsync + ``os.replace``
  writes; nothing on disk is ever written in place,
* :mod:`repro.persistence.manifest` — the one on-disk object format:
  a versioned, checksummed ``manifest.json`` (format version, kind,
  per-file SHA-256 + record counts, and what its kind needs) over data
  files that always include the IR part ``ir.bats``.  An engine
  checkpoint is a ``snapshot`` object, a static index an ``artifact``
  (:mod:`repro.offline`), a replica checkpoint a ``node``
  (:mod:`repro.remote.replicas`),
* :mod:`repro.persistence.snapshot` — retention:
  ``snapshot/<generation>/`` directories behind an atomically flipped
  ``CURRENT`` pointer, keeping the last K checkpoints,
* :mod:`repro.persistence.fdsstate` — FDS durability (stored parse
  trees, source stamps, observed detector versions), so a restored
  engine resumes *incremental* maintenance,

and ties them together in :mod:`repro.persistence.engine`'s
:func:`save_engine` / :func:`load_engine`, re-exported here.  Every
catalog file a checkpoint holds is a
:mod:`repro.monetdb.persistence` column container.

The FDS state and ``save_engine``/``load_engine`` are exposed lazily
(PEP 562): they pull in the feature-grammar and core stacks, which a
worker process reading a ``node`` manifest does not need, and eager
import of the engine module would recreate the import cycle this split
exists to avoid.
"""

from repro.errors import SnapshotError
from repro.persistence.atomic import (atomic_write, atomic_write_bytes,
                                      atomic_write_text, fsync_directory,
                                      read_pointer, write_pointer)
from repro.persistence.manifest import (FORMAT_VERSION, IR_PART,
                                        MANIFEST_NAME, FileStamp, Manifest,
                                        config_from_dict, config_to_dict,
                                        save_ir_object, sha256_file,
                                        stamp_file, verify_files)
from repro.persistence.snapshot import (CURRENT_NAME, SNAPSHOT_DIR,
                                        SnapshotStore)

__all__ = [
    "SnapshotError",
    "atomic_write", "atomic_write_bytes", "atomic_write_text",
    "fsync_directory", "read_pointer", "write_pointer",
    "FORMAT_VERSION", "IR_PART", "MANIFEST_NAME", "FileStamp", "Manifest",
    "config_from_dict", "config_to_dict", "save_ir_object",
    "sha256_file", "stamp_file", "verify_files",
    "CURRENT_NAME", "SNAPSHOT_DIR", "SnapshotStore",
    "FDS_STATE_NAME", "decode_tree", "dump_fds_state", "encode_tree",
    "load_fds_state", "restore_fds_state",
    "save_engine", "load_engine",
]

_LAZY = {"save_engine": "engine", "load_engine": "engine",
         **dict.fromkeys(("FDS_STATE_NAME", "decode_tree", "dump_fds_state",
                          "encode_tree", "load_fds_state",
                          "restore_fds_state"), "fdsstate")}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        module = import_module(f"repro.persistence.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
