"""Immutable value records: the one base of the package's result types.

A subclass lists its fields as annotations, in order, with defaults as class
attributes.  `Record.__init_subclass__` reads them once and generates no
code: it binds the field names into the class's `__init__`, `__eq__` and
`__hash__`.  Instances are built positionally or by keyword, defaults filled
in, then `__post_init__` runs if the class has one (it normalizes a field
by writing `self.__dict__`).  Instances refuse assignment and deletion;
`==`, `hash` and repr run over every field, in order.  `replace(**changes)`
builds a changed copy through the constructor, so `__post_init__` runs again.
"""

from __future__ import annotations

from operator import itemgetter


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(vars(cls).get("__annotations__", ()))
        defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
        key = itemgetter(*fields)  # of the instance dict
        n, known, indexed = len(fields), frozenset(fields), tuple(enumerate(fields))
        post = getattr(cls, "__post_init__", None)

        def __init__(self, *args, **kwargs):
            d = self.__dict__
            if not kwargs and len(args) == n:
                for i, f in indexed:
                    d[f] = args[i]
            else:
                d |= defaults
                if args:
                    d |= zip(fields, args)
                d |= kwargs
                if len(args) > n or not kwargs.keys().isdisjoint(fields[:len(args)]) or d.keys() != known:
                    raise TypeError(_call_error(cls.__qualname__, fields, args, kwargs, d))
            if post is not None:
                post(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self.__dict__) == key(other.__dict__)
            return NotImplemented

        def __hash__(self):
            return hash(key(self.__dict__))

        cls._fields, cls.__init__, cls.__eq__, cls.__hash__ = fields, __init__, __eq__, __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        d = self.__dict__
        return f"{type(self).__qualname__}({', '.join(f'{f}={d[f]!r}' for f in self._fields)})"

    def replace(self, **changes):
        d = self.__dict__
        return type(self)(**{f: d[f] for f in self._fields} | changes)


def _call_error(name: str, fields: tuple, args: tuple, kwargs: dict, values: dict) -> str:
    if len(args) > len(fields):
        return f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
    for f in kwargs:
        if f in fields[:len(args)]:
            return f"{name}() got multiple values for field {f!r}"
        if f not in fields:
            return f"{name}() got an unexpected keyword argument {f!r}"
    return f"{name}() missing field {next(f for f in fields if f not in values)!r}"
