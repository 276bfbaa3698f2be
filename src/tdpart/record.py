"""Value semantics for plain classes, with no code generated at import.

A Record subclass declares __slots__ and writes its own __init__. Its
`_fields`, by default the names in its own __slots__, are what equality,
hashing and repr read: two records are equal when they are of one class
and their fields are equal, and equal records hash alike. A record is
immutable by convention only; one that is changed must not be hashed.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__dict__.get("__slots__", ())
        # what equality and hashing compare, read in C: the fields' values
        # (a lone field's bare; attrgetter needs at least one name)
        cls._values = staticmethod(attrgetter(*cls._fields) if cls._fields else lambda _: ())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"
