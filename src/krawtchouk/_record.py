"""Immutable value records, the package's stand-in for frozen dataclasses.

`dataclasses` imports `inspect` and through it `ast`, `dis` and `tokenize`,
which cost a CLI process more than most commands' work; four small records
do not need it.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    """A frozen record over the fields named in `__slots__`.

    Built positionally or by keyword, compared and hashed by its field
    values (records of different classes are never equal), printed as
    Name(field=value, ...), and closed to assignment.  A subclass that
    validates its input does so in its own `__init__` and then calls
    `_fill`; copies and pickles are rebuilt through `__init__`,
    so every way of building a record validates it.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)  # the field tuple; records have >= 2 fields

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls}() got an unexpected or repeated field {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing fields {missing}")
        self._fill(*[values[name] for name in names])

    def _fill(self, *values):
        """Set every field, in `__slots__` order; for validated subclasses."""
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
