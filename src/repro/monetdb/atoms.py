"""Atom abstract data types (ADTs) of the binary-association store.

The paper's physical level stores all data as *binary associations* whose
columns carry typed atoms.  The feature grammar language likewise declares
``%atom`` ADTs (``oid``, ``int``, ``flt``, ``str``, ``bit``, ``url``) that
"should be supported by the lower system levels".  This module is that
support: a small registry of atom types with validation and coercion.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import AtomTypeError

__all__ = ["Oid", "AtomType", "ATOM_TYPES", "atom_type", "register_atom_type"]


class Oid(int):
    """An object identifier.

    Oids are plain integers with a distinct type so that accidental mixing
    of oids and data integers is caught by atom validation.  They print in
    the Monet style (``123@0``).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{int(self)}@0"


def _check_oid(value: Any) -> Oid:
    if isinstance(value, Oid):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Oid(value)
    raise AtomTypeError(f"not an oid: {value!r}")


def _check_int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise AtomTypeError(f"not an int: {value!r}")
    return value


def _check_flt(value: Any) -> float:
    if isinstance(value, bool):
        raise AtomTypeError(f"not a flt: {value!r}")
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return float(value)
    raise AtomTypeError(f"not a flt: {value!r}")


def _check_str(value: Any) -> str:
    if not isinstance(value, str):
        raise AtomTypeError(f"not a str: {value!r}")
    return value


def _check_bit(value: Any) -> bool:
    if not isinstance(value, bool):
        raise AtomTypeError(f"not a bit: {value!r}")
    return value


def _check_url(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise AtomTypeError(f"not a url: {value!r}")
    if ":" not in value and not value.startswith("/"):
        raise AtomTypeError(f"not a url (no scheme or absolute path): {value!r}")
    return value


def _check_ints_many(values: Sequence[Any], label: str) -> Sequence[Any]:
    # Fast path: the array constructor validates "is an int that fits
    # int64" at C speed; only bools (accepted by array, rejected by the
    # ADT) need a Python-level scan.
    try:
        packed = array("q", values)
    except (TypeError, OverflowError):
        # mixed junk or arbitrary-precision ints: per-value check gives
        # the precise AtomTypeError (or keeps big ints on a list)
        checker = _check_oid if label == "oid" else _check_int
        return [checker(value) for value in values]
    # bools pack as 0/1, so only positions holding 0 or 1 can hide one;
    # find those at C speed and type-check just them
    if len(packed) >= 1024:
        column = np.frombuffer(packed, dtype=np.int64)
        suspects = np.flatnonzero(np.abs(column) <= 1).tolist()
        if any(type(values[i]) is bool for i in suspects):
            raise AtomTypeError(f"not an {label}: True")
    elif bool in set(map(type, values)):  # one C-speed pass
        raise AtomTypeError(f"not an {label}: True")
    return packed


def _check_oid_many(values: Sequence[Any]) -> Sequence[Any]:
    if isinstance(values, array) and values.typecode == "q":
        return values
    return _check_ints_many(values, "oid")


def _check_int_many(values: Sequence[Any]) -> Sequence[Any]:
    if isinstance(values, array) and values.typecode == "q":
        return values
    return _check_ints_many(values, "int")


def _check_flt_many(values: Sequence[Any]) -> Sequence[Any]:
    if isinstance(values, array) and values.typecode == "d":
        return values
    try:
        packed = array("d", values)
    except TypeError:
        return [_check_flt(value) for value in values]
    if bool in set(map(type, values)):
        raise AtomTypeError("not a flt: True")
    return packed


def _check_str_many(values: Sequence[Any]) -> Sequence[Any]:
    if set(map(type, values)) <= {str}:  # one C-speed pass
        return list(values)
    return [_check_str(value) for value in values]


def _check_url_many(values: Sequence[Any]) -> Sequence[Any]:
    if all(type(value) is str and value
           and (":" in value or value.startswith("/"))
           for value in values):
        return list(values)
    return [_check_url(value) for value in values]


@dataclass(frozen=True)
class AtomType:
    """A named atom ADT with a validating coercion function.

    ``typecode`` names the :mod:`array` storage class of the packed
    column layout (``'q'`` for oid/int, ``'d'`` for flt, ``None`` for
    heap-object atoms); ``check_many`` is an optional batch validator
    that coerces a whole column at C speed.
    """

    name: str
    check: Callable[[Any], Any]
    check_many: Callable[[Sequence[Any]], Sequence[Any]] | None = None
    typecode: str | None = None

    def coerce(self, value: Any) -> Any:
        """Return ``value`` coerced to this ADT, or raise :class:`AtomTypeError`."""
        return self.check(value)

    def coerce_many(self, values: Iterable[Any]) -> Sequence[Any]:
        """Coerce a whole column; the batch twin of :meth:`coerce`.

        Returns a sequence of the coerced values — an :mod:`array` when
        the ADT packs (so bulk appends are memcpy-speed), a list
        otherwise — or raises :class:`AtomTypeError` on the first
        non-conforming value.
        """
        if not isinstance(values, (list, tuple, array)):
            values = list(values)
        if self.check_many is not None:
            return self.check_many(values)
        return [self.check(value) for value in values]

    def accepts(self, value: Any) -> bool:
        """Report whether ``value`` conforms to this ADT."""
        try:
            self.check(value)
        except AtomTypeError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AtomType({self.name})"


ATOM_TYPES: dict[str, AtomType] = {
    "oid": AtomType("oid", _check_oid, _check_oid_many, "q"),
    "int": AtomType("int", _check_int, _check_int_many, "q"),
    "flt": AtomType("flt", _check_flt, _check_flt_many, "d"),
    "str": AtomType("str", _check_str, _check_str_many),
    "bit": AtomType("bit", _check_bit),
    "url": AtomType("url", _check_url, _check_url_many),
}


def atom_type(name: str) -> AtomType:
    """Look up a registered atom ADT by name."""
    try:
        return ATOM_TYPES[name]
    except KeyError:
        raise AtomTypeError(f"unknown atom type: {name!r}") from None


def register_atom_type(name: str, check: Callable[[Any], Any]) -> AtomType:
    """Register a new atom ADT (the ``%atom url;`` declaration of the paper).

    Re-registering an existing name with a new checker is an error; the
    declaration is idempotent when the checker is identical.
    """
    existing = ATOM_TYPES.get(name)
    if existing is not None:
        if existing.check is check:
            return existing
        raise AtomTypeError(f"atom type {name!r} already registered")
    new_type = AtomType(name, check)
    ATOM_TYPES[name] = new_type
    return new_type
