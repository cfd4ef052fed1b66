"""Shared numeric guards, and the lazy import of numpy."""

from __future__ import annotations

import importlib.util
import math
import sys
from types import ModuleType

from .errors import DomainError, NumericalError

_UNIT_SLACK = 1e-9
_RATE_TOL = 1e-8


def require_finite(what: str, names: str, *values: float) -> None:
    """Raise DomainError unless every value is finite; ``names`` names them, space
    separated, for the message.

    A nan fails every comparison, so it would pass each domain check and take the
    branch that a failed comparison selects; an infinite argument has no closed
    form.  Every public identity checks its arguments here first.
    """
    for value in values:
        if not math.isfinite(value):
            name, value = next((n, v) for n, v in zip(names.split(), values)
                               if not math.isfinite(v))
            raise DomainError(f"{what} requires a finite {name}, got {value!r}")


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


def lazy_module(name: str) -> ModuleType:
    """The module ``name``, executed at its first attribute access (the recipe of
    :class:`importlib.util.LazyLoader`); a module already imported is returned as is.

    numpy is taken this way by every module that uses it, so that importing the
    library, the registry, the CLI or the Monte Carlo package loads no numpy, and a
    closed form, evaluated with ``math`` alone, never pays for it.  None of them may
    touch numpy at import time.  Whoever touches it first, the library or any other
    ``import numpy``, loads the one module object that every user then shares.
    """
    try:
        return sys.modules[name]
    except KeyError:
        pass
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
