"""Crash-safe snapshot & recovery for the three-level engine.

The subsystem layers four modules:

* :mod:`repro.persistence.atomic` — temp + fsync + ``os.replace``
  writes; nothing in a snapshot is ever written in place,
* :mod:`repro.persistence.manifest` — the versioned, checksummed
  ``engine.json`` (format version, per-file SHA-256 + record counts,
  store generation stamps, the full engine config),
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

``save_engine``/``load_engine`` are exposed lazily (PEP 562): the
engine module pulls in the whole core stack, and eager import here
would recreate the import cycle this split exists to avoid.
"""

from repro.errors import SnapshotError
from repro.persistence.atomic import (atomic_write, atomic_write_bytes,
                                      atomic_write_text, fsync_directory,
                                      read_pointer, write_pointer)
from repro.persistence.manifest import (FORMAT_VERSION, MANIFEST_NAME,
                                        FileStamp, Manifest,
                                        config_from_dict, config_to_dict,
                                        sha256_file, stamp_file,
                                        verify_files)
from repro.persistence.snapshot import (CURRENT_NAME, SNAPSHOT_DIR,
                                        SnapshotStore)
from repro.persistence.fdsstate import (FDS_STATE_NAME, decode_tree,
                                        dump_fds_state, encode_tree,
                                        load_fds_state, restore_fds_state)

__all__ = [
    "SnapshotError",
    "atomic_write", "atomic_write_bytes", "atomic_write_text",
    "fsync_directory", "read_pointer", "write_pointer",
    "FORMAT_VERSION", "MANIFEST_NAME", "FileStamp", "Manifest",
    "config_from_dict", "config_to_dict",
    "sha256_file", "stamp_file", "verify_files",
    "CURRENT_NAME", "SNAPSHOT_DIR", "SnapshotStore",
    "FDS_STATE_NAME", "decode_tree", "dump_fds_state", "encode_tree",
    "load_fds_state", "restore_fds_state",
    "save_engine", "load_engine",
]

_LAZY = ("save_engine", "load_engine")


def __getattr__(name):
    if name in _LAZY:
        from repro.persistence import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
