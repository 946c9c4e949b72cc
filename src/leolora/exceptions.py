"""Shared exception types, the bounds a scenario field declares once, and
`shown`, the one way the reader of scenario and override files shows a value.

A scenario dataclass declares each field with `bounded`: its bounds and its
scenario default live on the field.  The constructor enforces them through
`check_bounds`, and the scenario reader reads the same declaration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields


class ConfigError(ValueError):
    """A configuration value is outside its legal range."""


class ContractError(RuntimeError):
    """A caller violated an operation's precondition."""


class ValidationError(ValueError):
    """Scenario validation failed; carries every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def shown(value) -> str:
    """A value as a problem line shows it: a whole number of 18 digits or more in short form."""
    if isinstance(value, int) and abs(value) >= 10**17:
        return f"{value:.3g}" if abs(value) <= sys.float_info.max else "an int past float range"
    return repr(value)


@dataclass(frozen=True)
class Bounds:
    """What a field accepts: >= ge, > gt, <= le, one of choices, and a float only if finite."""

    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    choices: tuple | None = None

    def problem(self, value) -> str | None:
        """Why value breaks these bounds, or None if it keeps them."""
        if isinstance(value, float) and not math.isfinite(value):
            return f"must be a finite number, got {shown(value)}"
        if self.ge is not None and value < self.ge:
            return f"must be >= {self.ge}, got {shown(value)}"
        if self.gt is not None and value <= self.gt:
            return f"must be > {self.gt}, got {shown(value)}"
        if self.le is not None and value > self.le:
            return f"must be <= {self.le}, got {shown(value)}"
        if self.choices is not None and value not in self.choices:
            return f"must be one of {self.choices}, got {value!r}"
        return None


def bounded(default=MISSING, *, ge=None, gt=None, le=None, choices=None):
    """A scenario field with its scenario default (none: required) and its bounds."""
    return field(default=default, metadata={"bounds": Bounds(ge, gt, le, choices)})


def check_bounds(obj) -> None:
    """Raise ConfigError naming the first field of obj that breaks its declared bounds."""
    for f in fields(obj):
        bounds, value = f.metadata.get("bounds"), getattr(obj, f.name)
        if bounds is not None and value is not None:
            problem = bounds.problem(value)
            if problem is not None:
                raise ConfigError(f"{f.name}: {problem}")
