"""The library's immutable value types and its memos.

A record is a tuple subclass whose equality holds only against the same
type, as a frozen dataclass's does: never against a plain tuple, nor against
another record type with equal fields. Fields read through C-level getters,
build by position or keyword (the rightmost may have defaults), repr as
``Name(field=value, ...)`` and hash as the tuple of their values. Each
subclass sets ``__slots__ = ()``, so assigning any attribute raises
AttributeError.

A memo is a dict of a one-argument function's results, filled on first use
of each argument. Indexing it is a C-level hit, as cheap as
``functools.lru_cache``'s.

``collections.namedtuple``, ``functools``, ``dataclasses`` (which imports
``inspect``) and ``typing`` are not used: a fresh process paid more to import
them, or to build its records with namedtuple's ``exec``, than for all of the
library's own work up to its first value.
"""

try:
    # the C field descriptor namedtuple itself uses
    from _collections import _tuplegetter
except ImportError:  # pragma: no cover - interpreters without it
    from operator import itemgetter

    def _tuplegetter(index: int, doc: str):
        return property(itemgetter(index), doc=doc)


#: tuple.__new__, bound once for every module: looking an attribute up on a
#: type is slow, and the identities and the evaluator's kernel build a record
#: or two per call. A record built through it skips the class call's
#: argument packing, and a subclass's own __new__
_new = tuple.__new__


class _Record(tuple):
    """What every record shares; ``record`` adds the fields and ``__new__``."""

    __slots__ = ()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords, defaults or a wrong
        number of arguments, or the TypeError a function call would raise."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._field_defaults:
                values.append(cls._field_defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument: {field!r}")
        for key in kwargs:
            if key in fields:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        return values

    @classmethod
    def _make(cls, iterable):
        # through the class call, so a subclass's own __new__ checks its fields
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)

    def _replace(self, /, **changes):
        result = self._make([changes.pop(f, v) for f, v in zip(self._fields, self)])
        if changes:
            raise ValueError(f"got unexpected field names: {list(changes)!r}")
        return result

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{self.__class__.__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


def record(name: str, fields: str, defaults: tuple = ()) -> type:
    """Base class for a record ``name`` with the space-separated ``fields``;
    ``defaults`` apply to the rightmost fields."""
    names = tuple(fields.split())
    count = len(names)

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != count:
            args = cls._bind(args, kwargs)
        return _new(cls, args)

    namespace = {
        "__new__": __new__,
        "__slots__": (),
        "__qualname__": name,
        "_fields": names,
        "_field_defaults": dict(zip(names[len(names) - len(defaults):], defaults)),
        "__match_args__": names,
    }
    for i, field in enumerate(names):
        namespace[field] = _tuplegetter(i, f"Alias for field number {i}")
    return type(name, (_Record,), namespace)


class memo(dict):
    """The results of ``fn`` by argument, each computed once, on first use.

    ``m[key]`` and ``m(key)`` both return ``fn(key)``; indexing is the
    cheaper. ``fn`` stays reachable as ``__wrapped__``, and a failed call
    stores nothing.
    """

    __slots__ = ("__wrapped__",)

    def __init__(self, fn) -> None:
        self.__wrapped__ = fn

    __call__ = dict.__getitem__

    def __missing__(self, key):
        value = self[key] = self.__wrapped__(key)
        return value
