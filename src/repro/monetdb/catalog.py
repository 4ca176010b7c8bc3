"""A catalog of named BATs — the schema of one database server.

The Monet XML mapping is *document dependent*: relations appear and grow as
documents arrive.  The catalog therefore supports creation-on-demand
(:meth:`Catalog.ensure`) next to strict lookup, and it tracks an oid
sequence so every server hands out unique object identifiers.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import CatalogError
from repro.monetdb.atoms import AtomType, Oid
from repro.monetdb.bat import BAT

__all__ = ["Catalog", "OidGenerator"]


class OidGenerator:
    """A monotone oid sequence with an optional stride for sharding.

    A cluster gives server *i* of *k* the sequence ``i, i+k, i+2k, ...`` so
    oids never collide across shared-nothing servers.
    """

    def __init__(self, start: int = 0, stride: int = 1):
        if stride < 1:
            raise CatalogError("oid stride must be >= 1")
        self._next = start
        self._stride = stride

    def new(self) -> Oid:
        """Return a fresh oid."""
        oid = Oid(self._next)
        self._next += self._stride
        return oid

    def peek(self) -> Oid:
        """Return the oid that :meth:`new` would hand out next."""
        return Oid(self._next)

    def advance_past(self, oid: int) -> None:
        """Ensure future oids are strictly greater than ``oid``."""
        if self._next <= oid:  # whole strides, in one step
            self._next += ((oid - self._next) // self._stride + 1) \
                * self._stride


class Catalog:
    """Named-BAT catalog of a single server."""

    def __init__(self, oid_start: int = 0, oid_stride: int = 1):
        self._bats: dict[str, BAT] = {}
        self.oids = OidGenerator(oid_start, oid_stride)

    def __contains__(self, name: str) -> bool:
        return name in self._bats

    def __len__(self) -> int:
        return len(self._bats)

    def __iter__(self) -> Iterator[str]:
        return iter(self._bats)

    def names(self) -> list[str]:
        """All relation names, sorted."""
        return sorted(self._bats)

    def create(self, name: str, head_type: AtomType | str,
               tail_type: AtomType | str) -> BAT:
        """Create a new named BAT; it is an error if the name exists."""
        if name in self._bats:
            raise CatalogError(f"relation already exists: {name!r}")
        bat = BAT(head_type, tail_type, name=name)
        self._bats[name] = bat
        return bat

    def ensure(self, name: str, head_type: AtomType | str,
               tail_type: AtomType | str) -> BAT:
        """Return the named BAT, creating it when absent.

        When the BAT exists its column types must match the request; the
        document-dependent mapping relies on stable per-path types.
        """
        bat = self._bats.get(name)
        if bat is None:
            return self.create(name, head_type, tail_type)
        wanted_head = head_type if isinstance(head_type, str) else head_type.name
        wanted_tail = tail_type if isinstance(tail_type, str) else tail_type.name
        if bat.head_type.name != wanted_head or bat.tail_type.name != wanted_tail:
            raise CatalogError(
                f"relation {name!r} exists with types "
                f"[{bat.head_type.name},{bat.tail_type.name}], requested "
                f"[{wanted_head},{wanted_tail}]")
        return bat

    def get(self, name: str) -> BAT:
        """Strict lookup; raises :class:`CatalogError` when absent."""
        try:
            return self._bats[name]
        except KeyError:
            raise CatalogError(f"unknown relation: {name!r}") from None

    def get_or_none(self, name: str) -> BAT | None:
        """Lookup returning ``None`` when absent."""
        return self._bats.get(name)

    def drop(self, name: str) -> None:
        """Remove a relation from the catalog."""
        if name not in self._bats:
            raise CatalogError(f"unknown relation: {name!r}")
        del self._bats[name]

    def total_buns(self) -> int:
        """Total number of associations stored across all relations."""
        return sum(len(bat) for bat in self._bats.values())

    def stats(self) -> dict[str, Any]:
        """Summary statistics (used by benchmarks and the engine REPL)."""
        return {
            "relations": len(self._bats),
            "buns": self.total_buns(),
        }
