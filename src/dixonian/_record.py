"""The one recipe for the library's immutable value types.

A record is a ``collections.namedtuple`` base whose equality holds only
against the same type, as a frozen dataclass's does: never against a plain
tuple, nor against another record type with equal fields. Fields read
through C-level getters, build by position or keyword, repr as
``Name(field=value, ...)`` and hash as the tuple of their values. Each
subclass sets ``__slots__ = ()``, so assigning any attribute raises
AttributeError.

``dataclasses`` (which imports ``inspect``) and ``typing`` are not used: a
fresh process paid more to import them than for all of the library's own
work up to its first value.
"""

from collections import namedtuple


def _same_type_eq(self, other) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _same_type_ne(self, other) -> bool:
    return not _same_type_eq(self, other)


def record(name: str, fields: str, defaults: tuple = ()) -> type:
    """Base class for a record ``name`` with the space-separated ``fields``;
    ``defaults`` apply to the rightmost fields."""
    base = namedtuple(name, fields, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _same_type_eq, _same_type_ne, tuple.__hash__
    return base
