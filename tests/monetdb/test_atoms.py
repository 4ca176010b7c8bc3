"""Atom ADT validation and coercion."""

import enum
from array import array

import pytest

from repro.errors import AtomTypeError
from repro.monetdb.atoms import ATOM_TYPES, Oid, atom_type, register_atom_type


class TestOid:
    def test_oid_is_int(self):
        assert Oid(7) == 7

    def test_oid_repr_monet_style(self):
        assert repr(Oid(123)) == "123@0"

    def test_oid_type_coerces_plain_int(self):
        assert isinstance(atom_type("oid").coerce(5), Oid)

    def test_oid_rejects_bool(self):
        with pytest.raises(AtomTypeError):
            atom_type("oid").coerce(True)

    def test_oid_rejects_string(self):
        with pytest.raises(AtomTypeError):
            atom_type("oid").coerce("7")


class TestBuiltinTypes:
    def test_all_builtins_registered(self):
        assert {"oid", "int", "flt", "str", "bit", "url"} <= set(ATOM_TYPES)

    def test_int_accepts_int(self):
        assert atom_type("int").coerce(42) == 42

    def test_int_rejects_bool(self):
        with pytest.raises(AtomTypeError):
            atom_type("int").coerce(False)

    def test_int_rejects_float(self):
        with pytest.raises(AtomTypeError):
            atom_type("int").coerce(1.5)

    def test_flt_accepts_float(self):
        assert atom_type("flt").coerce(1.5) == 1.5

    def test_flt_widens_int(self):
        value = atom_type("flt").coerce(3)
        assert value == 3.0 and isinstance(value, float)

    def test_flt_rejects_bool(self):
        with pytest.raises(AtomTypeError):
            atom_type("flt").coerce(True)

    def test_str_accepts_text(self):
        assert atom_type("str").coerce("hi") == "hi"

    def test_str_rejects_int(self):
        with pytest.raises(AtomTypeError):
            atom_type("str").coerce(3)

    def test_bit_accepts_bool(self):
        assert atom_type("bit").coerce(True) is True

    def test_bit_rejects_int(self):
        with pytest.raises(AtomTypeError):
            atom_type("bit").coerce(1)

    def test_url_accepts_scheme(self):
        assert atom_type("url").coerce("http://x/y") == "http://x/y"

    def test_url_accepts_absolute_path(self):
        assert atom_type("url").coerce("/media/v0.mpg")

    def test_url_rejects_bare_word(self):
        with pytest.raises(AtomTypeError):
            atom_type("url").coerce("word")

    def test_url_rejects_empty(self):
        with pytest.raises(AtomTypeError):
            atom_type("url").coerce("")

    def test_accepts_reports_without_raising(self):
        assert atom_type("int").accepts(3)
        assert not atom_type("int").accepts("3")


class Seed(enum.IntEnum):
    ONE = 1
    TWO = 2


class TestBatchValidation:
    """``coerce_many`` rejects a bool wherever it hides, on both sides
    of the 1 024-value switch between its small and large scans."""

    @pytest.mark.parametrize("name", ["oid", "int", "flt"])
    @pytest.mark.parametrize("size", [1, 2, 1023, 1024, 5000])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected(self, name, size, where, flag):
        values = [7] * size
        values[{"first": 0, "middle": size // 2, "last": -1}[where]] = flag
        with pytest.raises(AtomTypeError):
            atom_type(name).coerce_many(values)

    @pytest.mark.parametrize("name", ["oid", "int", "flt"])
    @pytest.mark.parametrize("size", [1, 2, 1023, 1024, 5000])
    def test_int_subclasses_accepted(self, name, size):
        # an IntEnum member equal to 1 sits where the large scan looks
        values = ([Seed.ONE, Seed.TWO, 0, 1] * size)[:size]
        packed = atom_type(name).coerce_many(values)
        assert isinstance(packed, array)
        assert list(packed) == [int(value) for value in values]


class TestRegistry:
    def test_unknown_type_raises(self):
        with pytest.raises(AtomTypeError):
            atom_type("nosuch")

    def test_register_new_type(self):
        checker = lambda v: v  # noqa: E731
        new_type = register_atom_type("test_custom_atom", checker)
        assert atom_type("test_custom_atom") is new_type
        del ATOM_TYPES["test_custom_atom"]

    def test_register_idempotent_with_same_checker(self):
        checker = lambda v: v  # noqa: E731
        first = register_atom_type("test_idem_atom", checker)
        second = register_atom_type("test_idem_atom", checker)
        assert first is second
        del ATOM_TYPES["test_idem_atom"]

    def test_register_conflicting_checker_raises(self):
        register_atom_type("test_conflict_atom", lambda v: v)
        with pytest.raises(AtomTypeError):
            register_atom_type("test_conflict_atom", lambda v: v)
        del ATOM_TYPES["test_conflict_atom"]
