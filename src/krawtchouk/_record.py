"""Immutable value records, the package's stand-in for frozen dataclasses.

`dataclasses` imports `inspect` and through it `ast`, `dis` and `tokenize`,
which cost a CLI process more than most commands' work; four small records
do not need it.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    """A frozen record over the fields named in `__slots__`.

    Compared and hashed by its field values (records of different classes
    are never equal), printed as Name(field=value, ...), and closed to
    assignment.  Each subclass names its fields in its own `__init__`,
    validates them there if it must, and then calls `_fill`; copies and
    pickles are rebuilt through `__init__`, so every way of building a
    record validates it.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)  # the field tuple; records have >= 2 fields

    def _fill(self, *values):
        """Set the fields in `__slots__` order; each `__init__` ends with this call."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values(self)
