"""The physical substrate: a Monet-style binary-association column store.

Public surface:

* :class:`~repro.monetdb.bat.BAT` — the binary association table,
* :class:`~repro.monetdb.catalog.Catalog` — named BATs + oid generation,
* :class:`~repro.monetdb.server.MonetServer` / :class:`~repro.monetdb.server.Cluster`
  — single host and shared-nothing cluster with cost accounting,
* :mod:`~repro.monetdb.algebra` — the batch join path expressions run
  and the cluster's top-N merge,
* :func:`~repro.monetdb.persistence.save_catalog` / ``load_catalog``.
"""

from repro.monetdb.atoms import ATOM_TYPES, AtomType, Oid, atom_type, register_atom_type
from repro.monetdb.bat import BAT
from repro.monetdb.catalog import Catalog, OidGenerator
from repro.monetdb.persistence import load_catalog, save_catalog
from repro.monetdb.server import Cluster, MonetServer

__all__ = [
    "ATOM_TYPES", "AtomType", "Oid", "atom_type", "register_atom_type",
    "BAT", "Catalog", "OidGenerator", "MonetServer", "Cluster",
    "save_catalog", "load_catalog",
]
