"""Exception types and validity guards shared across the package."""

# The validity guards fired since the last clear: each distinct text, in the
# order it first fired, to its guard's name.  cli.main clears and reports it.
GUARDS: dict[str, str] = {}


def guard(name: str, text: str) -> None:
    """Record that the validity guard `name` fired, with the message `text`."""
    GUARDS.setdefault(text, name)


class ConfigError(Exception):
    """Invalid or inconsistent user-supplied configuration."""


class FieldError(ConfigError):
    """A ConfigError of a parameter record's fields: its message names each
    field at fault as Record.field ahead of ', got ', and the values after it."""


class NumericalError(Exception):
    """A numerical routine failed to converge or produced a non-physical state."""


class StrongTurbulenceError(NumericalError):
    """Weak-turbulence preconditions are violated for the requested geometry."""
