"""Web-objects and the object graph.

"Within a document web-objects are defined along with the relations
between them, forming instantiations of classes and associations from
the webspace schema."  The :class:`ObjectGraph` is the merged view the
web object retriever reconstructs from a document collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import SchemaError
from repro.webspace.schema import WebspaceSchema

__all__ = ["WebObject", "AssociationInstance", "ObjectGraph"]


@dataclass
class WebObject:
    """One instantiation of a webspace class."""

    cls: str
    key: str                             # globally unique object id
    attributes: dict[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def merge(self, other: "WebObject") -> None:
        """Merge another materialized view of the same object."""
        if (other.cls, other.key) != (self.cls, self.key):
            raise SchemaError(
                f"cannot merge {other.cls}:{other.key} into "
                f"{self.cls}:{self.key}")
        for name, value in other.attributes.items():
            existing = self.attributes.get(name)
            if existing is None:
                self.attributes[name] = value


@dataclass(frozen=True)
class AssociationInstance:
    """One instantiation of an association concept."""

    name: str
    source_key: str
    target_key: str


class ObjectGraph:
    """All web-objects and association instances of a webspace."""

    def __init__(self, schema: WebspaceSchema):
        self.schema = schema
        self._objects: dict[tuple[str, str], WebObject] = {}
        self._associations: set[AssociationInstance] = set()

    # -- updates ------------------------------------------------------------

    def add_object(self, obj: WebObject) -> WebObject:
        """Add or merge a web-object (documents overlap by design)."""
        if obj.cls not in self.schema.classes:
            raise SchemaError(f"unknown class {obj.cls!r}")
        for name in obj.attributes:
            self.schema.cls(obj.cls).attribute(name)  # validates
        slot = (obj.cls, obj.key)
        existing = self._objects.get(slot)
        if existing is None:
            self._objects[slot] = obj
            return obj
        existing.merge(obj)
        return existing

    def add_association(self, instance: AssociationInstance) -> None:
        self.schema.association(instance.name)  # validates
        self._associations.add(instance)

    # -- queries ------------------------------------------------------------

    def objects_of(self, cls: str) -> list[WebObject]:
        return sorted((obj for (c, _), obj in self._objects.items()
                       if c == cls), key=lambda obj: obj.key)

    def object(self, cls: str, key: str) -> WebObject:
        try:
            return self._objects[(cls, key)]
        except KeyError:
            raise SchemaError(f"no object {cls}:{key}") from None

    def has_object(self, cls: str, key: str) -> bool:
        return (cls, key) in self._objects

    def associations_named(self, name: str) -> list[AssociationInstance]:
        return sorted((a for a in self._associations if a.name == name),
                      key=lambda a: (a.source_key, a.target_key))

    def related(self, association: str, source_key: str) -> list[str]:
        """Target keys related to a source through an association."""
        return sorted(a.target_key for a in self._associations
                      if a.name == association and a.source_key == source_key)

    def association_count(self) -> int:
        return len(self._associations)
