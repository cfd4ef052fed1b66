"""Shared numeric guards."""

from __future__ import annotations

import math

from .errors import NumericalError

_UNIT_SLACK = 1e-9


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
