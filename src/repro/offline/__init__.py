"""The offline tier: static index artifacts and the zero-server reader.

The paper argues digital-library search must stay flexible across
deployment shapes, not merely fast inside one server; this package is
the deployment shape with *no server at all*.  ``repro-search
export-index`` (:func:`export_index`) writes a versioned,
self-describing artifact — an ``artifact``-kind object of
:mod:`repro.persistence.manifest`: the snapshot's IR part ``ir.bats``
plus a checksummed ``manifest.json`` — and :class:`StaticIndexReader`
memory-loads it and answers the full schema-2 request surface with
rankings bit-identical to the live service, no locks, no admission
control, no HTTP.

The artifact format is documented in DESIGN.md §16.
"""

from repro.offline.export import export_index
from repro.offline.reader import StaticIndexReader

__all__ = ["export_index", "StaticIndexReader"]
