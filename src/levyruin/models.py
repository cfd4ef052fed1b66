"""Spectrally negative Levy risk models and their analytic primitives.

Two parametric families are supported:

* Brownian risk:      X_t = x + mu*t + sigma*B_t,  psi(th) = mu*th + sigma^2 th^2 / 2
* Cramer-Lundberg with exponential claims:
                      X_t = x + c*t - sum_{i<=N_t} C_i,  C_i ~ Exp(alpha), N ~ Poisson(eta),
                      psi(th) = c*th - eta + alpha*eta/(th + alpha)

The module provides the Laplace exponent ``psi``, its derivative, the right-inverse
``phi`` (the positive root of psi(th)=q) and the transition law of X_r started at 0.
psi(th) = q clears to a quadratic, so both of its roots are cancellation-free closed forms.
Everything here but the transition law is ``math`` alone; numpy is taken lazily
(``util.lazy_module``), and the Bessel coefficients are tuples built with ``math``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Callable, Optional

from .errors import DomainError
from .util import lazy_module

np = lazy_module("numpy")

BROWNIAN = "brownian"
CRAMER_LUNDBERG = "cramer_lundberg"

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
        # scale_context's cache hashes the model about twice an evaluation; the
        # generated __hash__ would rebuild a tuple each time.  A kind flag, not
        # the kind string, so the hash is the same in every process and a model
        # pickled to a spawn-started worker keeps a valid one.  Not a field.
        object.__setattr__(self, "_hash", hash(
            (self.kind == BROWNIAN, self.mu, self.sigma, self.c, self.eta, self.alpha)))

    def __hash__(self) -> int:
        return self._hash

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


def _psi_slopes(model: LevyModel, a: float, b1: float, b2: float, k: int = 0,
                ta: Optional[float] = None, t2: Optional[float] = None,
                a2: Optional[float] = None) -> tuple:
    # the divided differences D(a, b) = (psi(a) - psi(b)) / (a - b) at b = b1 and b2 in
    # closed form (psi'(a) at a = b), or with k = 1 their derivatives in a, or with k = 1
    # and a2 their divided differences (D(a, b) - D(a2, b)) / (a - a2) in a.  On
    # Cramer-Lundberg models D(a, b) = c_k - g_k / (b + alpha), ta = a + alpha and t2 = b2 +
    # alpha to full precision next to the pole -alpha; t2 = 0 (residue 0 at the pole) gets 0
    if model.kind == BROWNIAN:
        half = 0.5 * model.sigma ** 2
        if k:
            return half, half
        return model.mu + half * (a + b1), model.mu + half * (a + b2)
    ta = a + model.alpha if ta is None else ta
    ck, g = model.c, model.alpha * model.eta / ta
    if k:
        ck, g = 0.0, -g / (ta if a2 is None else a2 + model.alpha)
    t2 = b2 + model.alpha if t2 is None else t2
    return ck - g / (b1 + model.alpha), ck - g / t2 if t2 else 0.0


def _rate_slopes(model: LevyModel, t1: float, t2: float, a1: float, a2: float) -> tuple:
    # (psi[r_1, r_2], (A_1 - A_2) / (q_1 - q_2)) for the roots r_i = t_i - alpha of psi = q_i
    # on one branch, residues A_i: -A_1 A_2 psi'[r_1, r_2] / psi[r_1, r_2], with A_i / t_i =
    # 1 / (c t_i - alpha eta / t_i) from t_i, lest a residue underflow next to the pole
    if model.kind == BROWNIAN:
        s = model.mu + 0.5 * model.sigma ** 2 * (t1 + t2)
        return s, -a1 * a2 * model.sigma ** 2 / s
    ae, c = model.alpha * model.eta, model.c
    s = c - ae / t1 / t2
    return s, -ae * (1.0 / t1 + 1.0 / t2) / (c * t1 - ae / t1) / (c * t2 - ae / t2) / s


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


# 2 e^{-z} I_1(z)/z is e^{-z} times a power series in z^2/4 below z = 17, and
# sqrt(2/(pi z))/z times Hankel's expansion in 1/z above (error below e^{-2z});
# coefficients from the highest power down, built with math (no numpy at import)
_I1_SERIES = tuple(1.0 / float(math.factorial(k) * math.factorial(k + 1))
                   for k in range(59, -1, -1))
_I1_HANKEL = tuple(accumulate((((2 * k - 1) ** 2 - 4.0) / (8.0 * k) for k in range(1, 26)),
                              mul, initial=1.0))[::-1]


def _poisson_erlang(a: np.ndarray, b: np.ndarray, diff: Optional[np.ndarray] = None,
                    scale: float = 1.0) -> np.ndarray:
    """scale sum_{j>=0} e^{-a-b} a^j b^j/(j! (j+1)!) = scale e^{-a-b} I_1(2 sqrt(ab))/sqrt(ab)
    for a, b >= 0, as e^{-(sqrt a - sqrt b)^2} 2 e^{-z} I_1(z)/z at z = 2 sqrt(ab).
    ``diff`` is a - b where the caller forms it without the subtraction of two large
    terms: sqrt a - sqrt b is then diff / (sqrt a + sqrt b).  ``scale`` enters before
    the divisions by z, so that a value below the float range (about z^{-3/2} at large
    z) is not lost where the scaled value is in range."""
    sa, sb = np.sqrt(a), np.sqrt(b)
    z = 2.0 * sa * sb
    ratio = np.empty_like(z)
    small = z < 17.0
    ratio[small] = scale * np.exp(-z[small]) * np.polyval(_I1_SERIES, 0.25 * z[small] ** 2)
    zl = z[~small]
    ratio[~small] = np.polyval(_I1_HANKEL, 1.0 / zl) / (zl / scale) / np.sqrt(0.5 * math.pi * zl)
    gap = sa - sb if diff is None else diff / np.maximum(sa + sb, sys.float_info.min)
    return np.exp(-gap ** 2) * ratio


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
    mixture sum_{k>=1} P(N_r=k) Erlang(k, alpha)(c*r - z) for z < c*r.
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

        return TransitionDensity(None, 0.0, density, lower=m - 14.0 * s, upper=m + 14.0 * s)

    cr, a = model.c * r, model.eta * r

    def density(z):
        # sum_{k>=1} P(N_r = k) alpha P(Pois(alpha w) = k-1) at w = c r - z
        w = np.maximum(cr - np.asarray(z, dtype=float), 0.0)
        return np.where(w > 0.0, model.alpha * a * _poisson_erlang(a, model.alpha * w), 0.0)

    return TransitionDensity(cr, math.exp(-a), density,
                             lower=cr - (a + 21.0 * math.sqrt(a) + 60.0) / model.alpha, upper=cr)
