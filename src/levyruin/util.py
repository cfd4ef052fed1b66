"""Shared numeric guards."""

from __future__ import annotations

import math

from .errors import NumericalError

_UNIT_SLACK = 1e-9
_RATE_TOL = 1e-8


def clamp_unit(value: float, what: str) -> float:
    """Clamp a probability-valued quantity to [0, 1].

    Violations within 1e-9 of the boundary are rounding noise and are clamped;
    anything larger, or a value that is not finite, indicates a formula bug or a
    numeric breakdown and is a hard error.
    """
    if not math.isfinite(value):
        raise NumericalError(f"{what} = {value!r} is not finite")
    if value <= 0.0:  # -0.0 too
        if value < -_UNIT_SLACK:
            raise NumericalError(f"{what} = {value!r} is significantly below 0")
        return 0.0
    if value > 1.0:
        if value > 1.0 + _UNIT_SLACK:
            raise NumericalError(f"{what} = {value!r} is significantly above 1")
        return 1.0
    return value


def represented_rate(q: float, rate: float, what: str) -> float:
    """The rate a root of psi = q + rate sees: (q + rate) - q.

    A rate below the float resolution of q loses its digits in q + rate.  Off the
    requested rate by more than 1e-8 relative, that is a numerical error, not a
    value for another rate.
    """
    seen = (q + rate) - q
    if abs(seen - rate) > _RATE_TOL * rate:
        raise NumericalError(f"{what}: q = {q:g} absorbs the rate {rate:g} in q + {rate:g}")
    return seen
