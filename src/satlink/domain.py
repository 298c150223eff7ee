"""The values a parameter may take, declared once, next to its default.

A parameter dataclass declares a field as `param(default, domain)` and derives
from Checked: every caller meets one check, a ConfigError naming the field.
"""

from __future__ import annotations

from dataclasses import field, fields
from functools import cache
from typing import Callable, NamedTuple

from .errors import ConfigError


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


def param(default, domain: Domain):
    """A dataclass field with its default and its domain."""
    return field(default=default, metadata={"domain": domain})


def check(name: str, domain: Domain, value) -> None:
    if not domain.holds(value):
        raise ConfigError(f"{name}: expected {domain.text}, got {value!r}")


@cache
def _declared(cls) -> tuple[tuple[str, Domain], ...]:
    return tuple((f.name, f.metadata["domain"]) for f in fields(cls) if "domain" in f.metadata)


class Checked:
    """Base of a dataclass whose fields with a domain must lie in it (None: unset)."""

    def __post_init__(self):
        for name, domain in _declared(type(self)):
            value = getattr(self, name)
            if value is not None and not domain.holds(value):
                check(f"{type(self).__name__}.{name}", domain, value)
