"""Family parameters shared by every module, and the base of the library's
immutable records."""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__        # how a record's own ``__init__`` stores its fields


class Record:
    """An immutable record: each subclass lists all its fields in its own
    ``__slots__`` and validates and stores them (``_set``) in its ``__init__``.
    Equal only to the same class with equal fields; hashed by the fields; the
    repr is ``Name(field=value, ...)``.  Unlike ``dataclasses``, it costs a
    CLI process no ~10 ms import of ``inspect``."""

    __slots__ = ()

    def __init_subclass__(cls):
        # _fields(record) is the tuple of field values; one name gives attrgetter a bare value
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda record: (get(record),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class CpParams(Record):
    """Parameters (a, b, m) naming a copartition family; all must be >= 1."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a: int, b: int, m: int):
        if min(a, b, m) < 1:
            raise ValueError(f"copartition parameters must be >= 1, got {(a, b, m)}")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "m", m)

    def swapped(self) -> "CpParams":
        """The parameters of the conjugate family (b, a, m)."""
        return CpParams(self.b, self.a, self.m)

    def label(self) -> str:
        return f"cp_{self.a}_{self.b}_{self.m}"
