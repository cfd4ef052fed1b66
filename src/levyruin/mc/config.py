"""Monte Carlo campaign configuration and estimator results."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

from ..errors import DomainError
from ..models import BROWNIAN, LevyModel


@dataclass(frozen=True)
class EscapeLevel:
    """Stop a path once the surplus exceeds ``b_esc`` with no pending delay clock;
    the neglected probability is bounded by the classical ruin tail from b_esc."""

    b_esc: float

    def __post_init__(self):
        if not math.isfinite(self.b_esc) or self.b_esc <= 0.0:
            raise DomainError("escape level must be finite and > 0")


@dataclass(frozen=True)
class FixedTime:
    t_max: float

    def __post_init__(self):
        if not math.isfinite(self.t_max) or self.t_max <= 0.0:
            raise DomainError("fixed horizon must be finite and > 0")


Horizon = Union[EscapeLevel, FixedTime]


@dataclass(frozen=True)
class McConfig:
    replications: int
    seed: int
    horizon: Horizon
    antithetic: bool = False

    def __post_init__(self):
        for name in ("replications", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.antithetic and self.replications % 2 != 0:
            raise DomainError("antithetic campaigns need an even replication count")


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its standard error and a bound on truncation bias
    (the escape-level residual)."""

    value: float
    std_error: float
    replications: int
    truncation_bound: float


def classical_ruin_bound(model: LevyModel, u: float) -> float:
    """Closed-form bound on the classical ruin probability from surplus u."""
    if u <= 0.0:
        return 1.0
    if model.kind == BROWNIAN:
        if model.mu <= 0.0:
            return 1.0
        return math.exp(-2.0 * model.mu * u / model.sigma ** 2)
    ratio = model.eta / (model.c * model.alpha)
    if ratio >= 1.0:
        return 1.0
    return ratio * math.exp((model.eta / model.c - model.alpha) * u)


def default_escape_level(model: LevyModel, target_bound: float = 1e-6) -> float:
    """Smallest escape level whose classical-ruin residual is below ``target_bound``."""
    model.require_positive_drift("escape-level horizon")
    if model.kind == BROWNIAN:
        return model.sigma ** 2 * math.log(1.0 / target_bound) / (2.0 * model.mu)
    ratio = model.eta / (model.c * model.alpha)
    rate = model.alpha - model.eta / model.c
    return max(math.log(ratio / target_bound) / rate, 1.0)
