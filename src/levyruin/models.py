"""Spectrally negative Levy risk models and their analytic primitives.

Two parametric families are supported:

* Brownian risk:      X_t = x + mu*t + sigma*B_t,  psi(th) = mu*th + sigma^2 th^2 / 2
* Cramer-Lundberg with exponential claims:
                      X_t = x + c*t - sum_{i<=N_t} C_i,  C_i ~ Exp(alpha), N ~ Poisson(eta),
                      psi(th) = c*th - eta + alpha*eta/(th + alpha)

The module provides the Laplace exponent ``psi``, its derivative, the right-inverse
``phi`` (the positive root of psi(th)=q) and the transition law of X_r started at 0.
psi(th) = q clears to a quadratic, so both of its roots are cancellation-free closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln, pdtrik

from .errors import DomainError

BROWNIAN = "brownian"
CRAMER_LUNDBERG = "cramer_lundberg"

# Poisson tail mass at which the Cramer-Lundberg transition series is truncated;
# far below the Monte Carlo noise floor.
_SERIES_TAIL = 1e-12


@dataclass(frozen=True)
class LevyModel:
    """Parametric spectrally negative Levy risk process.

    Exactly one parameter set is meaningful depending on ``kind``:
    (mu, sigma) for "brownian", (c, eta, alpha) for "cramer_lundberg".
    Models with E[X_1] <= 0 are constructible; operations that need the positive
    drift condition raise :class:`DomainError` when called.
    """

    kind: str
    mu: float = 0.0
    sigma: float = 0.0
    c: float = 0.0
    eta: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind == BROWNIAN:
            if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
                raise DomainError("brownian model parameters must be finite")
            if self.sigma <= 0.0:
                # sigma = 0 would give monotone paths, which are excluded.
                raise DomainError("brownian model requires sigma > 0")
        elif self.kind == CRAMER_LUNDBERG:
            for name in ("c", "eta", "alpha"):
                v = getattr(self, name)
                if not math.isfinite(v) or v <= 0.0:
                    raise DomainError(f"cramer_lundberg model requires {name} > 0")
        else:
            raise DomainError(f"unknown model kind {self.kind!r}")

    @classmethod
    def brownian(cls, mu: float, sigma: float) -> "LevyModel":
        return cls(kind=BROWNIAN, mu=float(mu), sigma=float(sigma))

    @classmethod
    def cramer_lundberg(cls, c: float, eta: float, alpha: float) -> "LevyModel":
        return cls(kind=CRAMER_LUNDBERG, c=float(c), eta=float(eta), alpha=float(alpha))

    def mean(self) -> float:
        """E[X_1] = psi'(0+)."""
        if self.kind == BROWNIAN:
            return self.mu
        return self.c - self.eta / self.alpha

    def require_positive_drift(self, what: str) -> None:
        if self.mean() <= 0.0:
            raise DomainError(f"{what} requires E[X_1] > 0, got E[X_1] = {self.mean():g}")

    def describe(self) -> str:
        if self.kind == BROWNIAN:
            return f"brownian(mu={self.mu:g}, sigma={self.sigma:g})"
        return f"cramer_lundberg(c={self.c:g}, eta={self.eta:g}, alpha={self.alpha:g})"


def model_from_dict(spec: dict) -> LevyModel:
    """Build a model from the JSON model-file schema.

    Schema: {"kind": "brownian"|"cramer_lundberg", "mu":..., "sigma":..., "c":..., "eta":..., "alpha":...}
    Unknown keys are rejected.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("model spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == BROWNIAN:
        allowed = {"kind", "mu", "sigma"}
        required = {"mu", "sigma"}
    elif kind == CRAMER_LUNDBERG:
        allowed = {"kind", "c", "eta", "alpha"}
        required = {"c", "eta", "alpha"}
    else:
        raise DomainError(f"unknown model kind {kind!r}")
    unknown = set(spec) - allowed
    if unknown:
        raise DomainError(f"unknown model fields: {sorted(unknown)}")
    missing = required - set(spec)
    if missing:
        raise DomainError(f"missing model fields: {sorted(missing)}")
    fields = {k: float(v) for k, v in spec.items() if k != "kind"}
    return LevyModel(kind=kind, **fields)


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    if theta < 0.0:
        raise DomainError("theta must be >= 0")
    return theta


def _psi_any(model: LevyModel, theta: float) -> float:
    # no domain check; used internally at negative theta (always theta > -alpha for CL)
    if model.kind == BROWNIAN:
        return model.mu * theta + 0.5 * model.sigma ** 2 * theta * theta
    return model.c * theta - model.eta + model.alpha * model.eta / (theta + model.alpha)


def _psi_prime_any(model: LevyModel, theta: float) -> float:
    if model.kind == BROWNIAN:
        return model.mu + model.sigma ** 2 * theta
    t = theta + model.alpha
    try:
        return model.c - model.alpha * model.eta / t ** 2
    except OverflowError:
        # t ** 2 (libm pow) raises past 1e154, where t * t rounds to inf; pow stays
        # below that because its rounding differs from the product's in the last bit
        return model.c - model.alpha * model.eta / (t * t)


def _psi_second_any(model: LevyModel, theta: float) -> float:
    if model.kind == BROWNIAN:
        return model.sigma ** 2
    t = theta + model.alpha  # t * t * t rounds to inf where t ** 3 raises OverflowError
    return 2.0 * model.alpha * model.eta / (t * t * t)


def _psi_slopes(model: LevyModel, a: float, b1: float, b2: float, k: int = 0) -> tuple:
    # the divided differences D(a, b) = (psi(a) - psi(b)) / (a - b) at b = b1 and b2 in
    # closed form (psi'(a) at a = b), or with k = 1, 2 their k-th derivatives in a.  On
    # Cramer-Lundberg models D(a, b) = c_k - g_k / (b + alpha); b2 = -alpha, a root of
    # psi_q rounded to the pole, has residue 0 and gets 0
    if model.kind == BROWNIAN:
        half = 0.5 * model.sigma ** 2
        if k:
            return (half, half) if k == 1 else (0.0, 0.0)
        return model.mu + half * (a + b1), model.mu + half * (a + b2)
    ta = a + model.alpha
    ck, g = model.c, model.alpha * model.eta / ta
    if k:
        ck, g = 0.0, -g / ta if k == 1 else 2.0 * g / (ta * ta)
    t2 = b2 + model.alpha
    return ck - g / (b1 + model.alpha), ck - g / t2 if t2 else 0.0


def psi(model: LevyModel, theta: float) -> float:
    """Laplace exponent psi(theta) = log E[e^{theta X_1}], theta >= 0."""
    return _psi_any(model, _check_theta(theta))


def psi_prime(model: LevyModel, theta: float) -> float:
    """Exact derivative of the Laplace exponent; psi_prime(model, 0) = E[X_1]."""
    return _psi_prime_any(model, _check_theta(theta))


def _phi_zeta(model: LevyModel, q: float) -> tuple:
    # (Phi_q, zeta_q): the roots Phi_q >= 0 >= -zeta_q of lead th^2 + lin th - q vieta,
    # the numerator of psi_q.  The root (|lin| + sqrt(lin^2 + q k)) / (2 lead) adds two
    # nonnegative terms; the other follows from Phi_q zeta_q = q vieta / lead, so neither
    # cancels.  hypot, the halved terms and sqrt(q) sqrt(k) once q k overflows keep
    # every finite q finite.
    if model.kind == BROWNIAN:
        lead, lin, k, vieta = 0.5 * model.sigma ** 2, model.mu, 2.0 * model.sigma ** 2, 1.0
    else:
        lead, lin = model.c, model.c * model.alpha - model.eta - q
        k, vieta = 4.0 * model.c * model.alpha, model.alpha
    qk = q * k
    half = 0.5 * abs(lin) + 0.5 * math.hypot(
        lin, math.sqrt(qk) if qk < math.inf else math.sqrt(q) * math.sqrt(k))
    small = q / half * vieta if half > 0.0 else 0.0
    return (small, half / lead) if lin >= 0.0 else (half / lead, small)


def phi(model: LevyModel, q: float) -> float:
    """Right-inverse of psi: Phi_q = sup{ th >= 0 : psi(th) = q }.

    The nonnegative root of the quadratic numerator of psi_q, in closed form and
    without cancellation (within a few ulp of the exact root for every q >= 0).
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError("q must be finite and >= 0")
    return _phi_zeta(model, q)[0]


@dataclass(frozen=True)
class TransitionDensity:
    """Law of X_r started at 0: an optional atom plus an absolutely continuous part.

    ``density`` is vectorized over numpy arrays.  ``lower``/``upper`` bound the
    effective support of the a.c. part.
    """

    atom_location: Optional[float]
    atom_mass: float
    density: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float


def transition(model: LevyModel, r: float) -> TransitionDensity:
    """Transition law P(X_r in dz) started at 0.

    Brownian: Gaussian(mu*r, sigma^2*r), no atom.
    Cramer-Lundberg: atom e^{-eta r} at c*r (no claims) plus the Poisson-Erlang
    mixture sum_{k>=1} P(N_r=k) Erlang(k, alpha)(c*r - z) for z < c*r, truncated
    once the Poisson tail mass drops below 1e-12.
    """
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError("r must be finite and > 0")

    if model.kind == BROWNIAN:
        m = model.mu * r
        s = model.sigma * math.sqrt(r)

        def density(z, _m=m, _s=s):
            z = np.asarray(z, dtype=float)
            u = (z - _m) / _s
            return np.exp(-0.5 * u * u) / (_s * math.sqrt(2.0 * math.pi))

        return TransitionDensity(
            atom_location=None,
            atom_mass=0.0,
            density=density,
            lower=m - 14.0 * s,
            upper=m + 14.0 * s,
        )

    c, eta, alpha = model.c, model.eta, model.alpha
    cr = c * r
    mu_pois = eta * r
    kmax = math.ceil(pdtrik(1.0 - _SERIES_TAIL, mu_pois)) + 1
    ks = np.arange(1, kmax + 1, dtype=float)
    log_pmf = -mu_pois + ks * math.log(mu_pois) - gammaln(ks + 1.0)

    def density(z, _ks=ks, _log_pmf=log_pmf, _cr=cr, _alpha=alpha):
        z = np.asarray(z, dtype=float)
        w = _cr - z
        out = np.zeros_like(w)
        pos = w > 0.0
        if np.any(pos):
            wp = w[pos]
            # log of alpha^k w^{k-1} e^{-alpha w} / (k-1)!
            log_erl = (
                _ks[:, None] * math.log(_alpha)
                + (_ks[:, None] - 1.0) * np.log(wp)[None, :]
                - gammaln(_ks[:, None])
                - _alpha * wp[None, :]
            )
            out[pos] = np.exp(_log_pmf[:, None] + log_erl).sum(axis=0)
        return out

    spread = (kmax + 14.0 * math.sqrt(kmax) + 45.0) / alpha
    return TransitionDensity(
        atom_location=cr,
        atom_mass=math.exp(-mu_pois),
        density=density,
        lower=cr - spread,
        upper=cr,
    )
