"""Parameter records, and the values a parameter may take, declared once next to its default.

A record derives from Record: its fields are the names its class body
annotates, its defaults the values assigned there.  A field declared as
`param(default, domain)` is checked at construction: every caller meets one
check, a ConfigError naming the field.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Callable, NamedTuple

from .errors import ConfigError, FieldError


class Domain(NamedTuple):
    text: str                        # the words for it in an error message
    holds: Callable[[object], bool]  # a comparison, so False for nan


POSITIVE = Domain("a positive quantity", lambda x: x > 0)
NON_NEGATIVE = Domain("a non-negative quantity", lambda x: x >= 0)
CLOSED_UNIT = Domain("a quantity in [0, 1]", lambda x: 0 <= x <= 1)
UNIT = Domain("a quantity in (0, 1]", lambda x: 0 < x <= 1)
OPEN_UNIT = Domain("a quantity in (0, 1)", lambda x: 0 < x < 1)


def at_least(least: int) -> Domain:  # counts: the CLI parses them as whole numbers
    return Domain(f"at least {least}", lambda x: x >= least)


def one_of(*values) -> Domain:
    return Domain(f"one of {', '.join(map(repr, values))}", lambda x: x in values)


# a record field's default and its domain: `name: type = param(default, domain)`
param = namedtuple("param", "default domain")


def check(name: str, domain: Domain, value, error: type[ConfigError] = ConfigError) -> None:
    if not domain.holds(value):
        raise error(f"{name}: expected {domain.text}, got {value!r}")


class Record:
    """A frozen record, built by position or keyword, equal and hashed by type and field values;
    its class holds its _fields, their _defaults and the _domains declared with param."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set, cls._defaults, cls._domains = frozenset(cls._fields), {}, {}
        for name in cls._fields:
            value = cls.__dict__.get(name, cls)  # the class itself: no default
            if isinstance(value, param):
                value, cls._domains[name] = value.default, value.domain
                setattr(cls, name, value)
            if value is not cls:
                cls._defaults[name] = value

    def __init__(self, *args, **kwargs):
        cls, values = type(self), self.__dict__
        if cls._defaults:
            values.update(cls._defaults)
        if args:
            values.update(zip(cls._fields, args))
        values.update(kwargs)
        if values.keys() != cls._field_set or args and (
                len(args) > len(cls._fields) or not kwargs.keys().isdisjoint(cls._fields[:len(args)])):
            raise TypeError(f"{cls.__name__} takes each of {', '.join(cls._fields)} once, got {args}, {kwargs}")
        self.__post_init__()

    def __post_init__(self):  # each field with a domain must lie in it (None: unset)
        for name, domain in self._domains.items():
            value = self.__dict__[name]
            if value is not None and not domain.holds(value):
                check(f"{type(self).__name__}.{name}", domain, value, FieldError)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    # the field values, and their hash, taken once: a record is frozen
    @cached_property
    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __reduce__(self):  # the field values alone: a str hashes apart in each process
        return type(self), self._key

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._key))})"
