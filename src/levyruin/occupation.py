"""Poissonian occupation times below 0: transforms and the infinite-horizon law.

The occupation time accrues, within each negative excursion, from the first Poisson
observation epoch finding the surplus negative until the excursion's recovery to 0.
This module provides

* the joint transform of (first passage above b, occupation accrued until then),
* the Laplace transform of the total occupation over an infinite horizon,
* the kernels Gamma_lam and Lambda' built on Kendall's identity, and
* the full law of the infinite-horizon occupation time: an atom at 0 plus a density.

Numerical note: Gamma_lam(r) grows like psi'(Phi_lam) e^{lam r} (its Laplace
transform 1/(Phi_p - Phi_lam) has a pole at p = lam), so the textbook density
formula is a catastrophic cancellation at large r.  The density is evaluated
through the compensated kernel

    G(r) = Gamma_lam(r) - psi'(Phi_lam) e^{lam r} = (1/r) E[X_r^- e^{Phi_lam X_r}] >= 0

(split E[X_r e^{Phi_lam X_r}] = r psi'(Phi_lam) e^{lam r} over the two half-lines),
combined with the Laplace identity
int_0^inf e^{-lam s} Lambda'(x, s) ds = (Phi_lam/lam) Z(x, Phi_lam) - W(x).

Every kernel is a partial first moment of X_r under an exponential tilt, in
closed form and vectorized over r, so a density point costs one kernel call per
quadrature level of its convolution and tail integrals:

* Brownian: the tilted law is Gaussian.  G uses erfcx with e^{lam r} cancelled
  analytically, G(r) = e^{-r mu^2/2 sigma^2} (sigma/sqrt r) [1/sqrt(2 pi)
  + d erfcx(-d/sqrt 2)/2] with d = -psi'(Phi_lam) sqrt(r)/sigma; Gamma_lam and
  Lambda' use log_ndtr with their prefactors folded into the exponent.
* Cramer-Lundberg: the tilted law is again compound Poisson with exponential
  claims, and each moment reduces to the upper tail of the difference of two
  independent Poisson counts (Skellam).  Where the tilted drift is negative (G,
  and Lambda' on positive-drift models) that tail is a rare event: its
  probabilities e^{-(sqrt b - sqrt a)^2} rho^d ive(d, 2 sqrt(ab)) are summed with
  the prefactor (e^{lam r} for G, e^{-zeta_0 x} for Lambda') folded into the
  exponent, so the kernels stay finite and nonzero out to r ~ 1000 on thinly
  loaded models and for x far below 0.  Gamma_lam, a bulk moment, uses
  P(N >= K + m) = chndtr(2y, 2m, 2u) for N ~ Poisson(y), K ~ Poisson(u).

Lambda' needs no e^{r psi} prefactor: the exponents of W' are roots of psi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import chndtr, erfcx, ive, log_ndtr

from .errors import DomainError, NumericalError
from .models import BROWNIAN, LevyModel, _psi_prime_any, phi
from .quadrature import gl_adaptive, gl_fixed
from .scale import ScaleContext, _ratio, _roots, _z_tilde_sum, scale_context, z, z_tilde
from .util import clamp_unit

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_NEG_DENSITY_CLAMP = 1e-9
_CONV_TOL = 1e-7  # adaptive tolerance of the density convolution


def joint_lt_upcross(model: LevyModel, x: float, b: float, q: float, p: float,
                     lam: float) -> float:
    """E_x[ e^{-q tau_b^+ - p O_{tau_b^+, lam}} ; tau_b^+ < inf ]  for x <= b: the
    ratio Z~_q(x)/Z~_q(b) at (Phi_{lam+q}, Phi_{p+q}), regular at p = lam."""
    if x > b:
        raise DomainError("joint_lt_upcross requires x <= b")
    if lam <= 0.0:
        raise DomainError("joint_lt_upcross requires lam > 0")
    if p < 0.0 or q < 0.0:
        raise DomainError("joint_lt_upcross requires p >= 0 and q >= 0")
    ctx = scale_context(model, q)
    a1 = phi(model, lam + q)
    a2 = phi(model, p + q)
    return clamp_unit(_ratio(ctx, _z_tilde_sum(ctx, a1, a2), x, b), "joint_lt_upcross")


def _occupation_inf(model: LevyModel, p: float, lam: float) -> tuple:
    # (ctx0, k, Phi_lam, Phi_p) with E_x[e^{-p O_{inf, lam}}] = k Z~_0(x, Phi_lam, Phi_p)
    model.require_positive_drift("lt_occupation_inf")
    if p <= 0.0 or lam <= 0.0:
        raise DomainError("lt_occupation_inf requires p > 0 and lam > 0")
    php = phi(model, p)
    phl = phi(model, lam)
    return scale_context(model, 0.0), model.mean() * (php / p) * (phl / lam), phl, php


def lt_occupation_inf(model: LevyModel, x: float, p: float, lam: float) -> float:
    """E_x[ e^{-p O_{inf, lam}} ]; requires E[X_1] > 0."""
    ctx0, k, phl, php = _occupation_inf(model, p, lam)
    return clamp_unit(k * z_tilde(ctx0, x, phl, php), "lt_occupation_inf")


def _skellam_tail(a: np.ndarray, b: np.ndarray):
    """Upper tail of A - B for independent A ~ Poisson(a), B ~ Poisson(b), a < b.

    Returns (log_scale, p, e) with P(A >= B) = e^{log_scale} p and
    E[(A - B)^+] = e^{log_scale} e, so that callers fold their own exponential
    prefactor into log_scale.  P(A - B = d) = e^{-(sqrt b - sqrt a)^2} rho^d ive(d, z)
    with rho = sqrt(a/b) and z = 2 sqrt(ab).  The Bessel ratios h_d = I_d / I_{d-1}
    come from the stable downward recurrence h_d = z / (2d + z h_{d+1}), started at
    the exact ratio one order above the last term kept.  Term d of the mean is at
    most d rho^{d-1} prod_{2<=i<=d} h_i times term 1.  Terms are cut where this
    drops below e^{-40}, bounding h_i by 1 and z/2i (at most z + 62 terms), or by
    Amos's h_i <= z / (i - 1/2 + sqrt((i - 1/2)^2 + z^2)) where that cuts earlier.
    """
    z = 2.0 * np.sqrt(a * b)
    rho = np.sqrt(a / b)
    if not rho.all():
        raise NumericalError("Skellam tail: the Poisson means differ beyond the float range")
    z_max, rho_max = float(z.max()), float(rho.max())
    orders = np.arange(1.0, int(min(40.0 / -math.log(rho_max), z_max + 60.0)) + 3)
    log_h = np.log(z_max / (orders - 0.5 + np.sqrt((orders - 0.5) ** 2 + z_max * z_max)))
    log_bound = np.log(orders) + (orders - 1.0) * math.log(rho_max) + np.cumsum(log_h) - log_h[0]
    below = log_bound < -40.0
    n = int(orders[np.argmax(below)]) if below.any() else len(orders)
    i_n = ive(n, z)
    g = rho * np.divide(ive(n + 1, z), i_n, out=np.zeros_like(z), where=i_n > 0.0)
    rho_z, z_rho = rho * z, z / rho
    p = np.zeros_like(z)
    e = np.zeros_like(z)
    for d in range(n, 0, -1):
        g = rho_z / (2.0 * d + z_rho * g)  # g = rho h_d
        # Horner forms of sum_d prod_{i<=d} rho h_i and sum_d d prod_{i<=d} rho h_i
        p = g * (1.0 + p)
        e = g * (d + e)
    i_0 = ive(0, z)
    return -(np.sqrt(b) - np.sqrt(a)) ** 2, i_0 * (1.0 + p), i_0 * e


def _partial_moment(model: LevyModel, theta: float, log_pre: float, a: float,
                    r: np.ndarray) -> np.ndarray:
    """e^{log_pre} E[X_r e^{theta X_r}; X_r > a] e^{-r psi(theta)} for a 1-d array of r > 0.

    The partial first moment of X_r under the law tilted by e^{theta X_r}, the
    Cramer-Lundberg atom at c*r included.  The prefactor e^{log_pre} is folded into
    the exponent of the moment, so that neither overflows or underflows on its own.
    """
    if model.kind == BROWNIAN:
        # the tilted law is Gaussian(psi'(theta) r, sigma^2 r)
        m = _psi_prime_any(model, theta) * r
        s = model.sigma * np.sqrt(r)
        d = (a - m) / s
        return (m * np.exp(log_pre + log_ndtr(-d))
                + s * np.exp(log_pre - 0.5 * d * d) / _SQRT_2PI)
    # Under the tilt K ~ Poisson(u) claims arrive by r with Exp(beta) sizes.  With
    # N ~ Poisson(y), y = beta (c r - a): P(X_r > a) = P(N >= K) and
    # E[(X_r - a)^+] = E[(N - K)^+] / beta.
    beta = model.alpha + theta
    out = np.zeros_like(r)
    pos = model.c * r > a
    if not pos.any():
        return out
    u = model.eta * model.alpha * r[pos] / beta
    y = beta * (model.c * r[pos] - a)
    if _psi_prime_any(model, theta) < 0.0:
        # negative tilted drift, so y < u and {X_r > a} is a Skellam tail
        log_scale, p_ge, excess = _skellam_tail(y, u)
    else:
        # P(N >= K + m) = chndtr(2y, 2m, 2u) for m >= 1
        log_scale = 0.0
        p_tie = np.exp(-(np.sqrt(y) - np.sqrt(u)) ** 2) * ive(0, 2.0 * np.sqrt(u * y))
        p_ge = p_tie + chndtr(2.0 * y, 2.0, 2.0 * u)
        excess = y * p_ge - u * chndtr(2.0 * y, 4.0, 2.0 * u)
    out[pos] = np.exp(log_pre + log_scale) * (a * p_ge + excess / beta)
    return out


def gamma_lambda(model: LevyModel, lam: float, r: float) -> float:
    """Kernel Gamma_lam(r) = int_0^inf e^{Phi_lam z} (z/r) P(X_r in dz).

    The positive-half-line partial moment under the e^{Phi_lam z} tilt, including
    the Cramer-Lundberg atom at c*r.  Grows like psi'(Phi_lam) e^{lam r}; intended
    for moderate r.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"gamma_lambda requires finite r > 0, got {r!r}")
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"gamma_lambda requires finite lam > 0, got {lam!r}")
    ph = phi(model, lam)
    with np.errstate(over="ignore"):
        val = float(_partial_moment(model, ph, lam * r, 0.0, np.array([r], dtype=float))[0]) / r
    if not math.isfinite(val):
        raise OverflowError(
            f"gamma_lambda overflows at r={r!r}, lam={lam!r}: it grows like e^(lam r)"
        )
    return val


def _gamma_comp(model: LevyModel, lam: float, phi_lam: float, r) -> np.ndarray:
    # G(r) = (1/r) E[X_r^- e^{Phi_lam X_r}] = Gamma_lam(r) - psi'(Phi_lam) e^{lam r},
    # vectorized over r, with e^{lam r} cancelled against the tilted tail
    r = np.asarray(r, dtype=float)
    if model.kind == BROWNIAN:
        sig = model.sigma
        d = -_psi_prime_any(model, phi_lam) * np.sqrt(r) / sig
        bracket = 1.0 / _SQRT_2PI + 0.5 * d * erfcx(-d / math.sqrt(2.0))
        return np.exp(-r * model.mu ** 2 / (2.0 * sig * sig)) * (sig / np.sqrt(r)) * bracket
    # under the tilt X_r^- = (S_r - c r)^+ and E[(S_r - c r)^+] = E[(K - N)^+] / beta
    # with K ~ Poisson(u) tilted claims and N ~ Poisson(beta c r)
    beta = model.alpha + phi_lam
    u = model.eta * model.alpha * r / beta
    log_scale, _, excess = _skellam_tail(u, beta * model.c * r)
    return np.exp(lam * r + log_scale) * excess / (beta * r)


def _lambda_prime(model: LevyModel, ctx0: ScaleContext, x: float, r: np.ndarray) -> np.ndarray:
    # W'(y) = A Phi_0 e^{Phi_0 y} - B zeta_0 e^{-zeta_0 y}; both exponents are roots of
    # psi, so each term is a tilted partial moment with e^{r psi} = 1
    a = max(0.0, -x)
    total = np.zeros_like(r)
    for theta, res in _roots(ctx0):
        if res * theta != 0.0:
            total += res * theta * _partial_moment(model, theta, theta * x, a, r)
    return total / r


def lambda_prime(model: LevyModel, x: float, r: float) -> float:
    """Kernel Lambda'(x, r) = int W'(x+z) (z/r) P(X_r in dz) over z > max(0, -x)."""
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"lambda_prime requires finite r > 0, got {r!r}")
    r_arr = np.array([r], dtype=float)
    return float(_lambda_prime(model, scale_context(model, 0.0), x, r_arr)[0])


@dataclass
class OccupationLaw:
    """Law of the infinite-horizon Poissonian occupation time from level x.

    ``atom_at_zero`` is the mass of {O = 0} (= the probability the surplus is
    never observed negative); ``density`` is the absolutely continuous part,
    evaluated exactly at query points.  ``decay_rate`` is the exponential decay
    rate of the density tail (distance from 0 to the nearest singularity of the
    law's Laplace transform), used by the tail-truncation rule.
    """

    atom_at_zero: float
    density: Callable[[float], float]
    model: LevyModel = field(repr=False)
    x: float = 0.0
    lam: float = 0.0
    decay_rate: float = 0.0

    def suggested_r_max(self, tail_eps: float = 1e-3) -> float:
        return (math.log(1.0 / tail_eps) + 5.0) / self.decay_rate


def _transform_decay_rate(model: LevyModel) -> float:
    if model.kind == BROWNIAN:
        return model.mu ** 2 / (2.0 * model.sigma ** 2)
    return (math.sqrt(model.c * model.alpha) - math.sqrt(model.eta)) ** 2


def occupation_law(model: LevyModel, x: float, lam: float) -> OccupationLaw:
    """Atom-plus-density law of O_{inf, lam} started from x; requires E[X_1] > 0."""
    model.require_positive_drift("occupation_law")
    if lam <= 0.0:
        raise DomainError("occupation_law requires lam > 0")
    ctx0 = scale_context(model, 0.0)
    ph = phi(model, lam)
    psip = _psi_prime_any(model, ph)
    mean = model.mean()
    atom = mean * (ph / lam) * z(ctx0, x, ph)
    atom = clamp_unit(atom, "occupation atom")

    def density(r: float) -> float:
        r = float(r)
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"occupation density is defined for finite r > 0, got {r!r}")
        g_r = float(_gamma_comp(model, lam, ph, r))

        # int_0^r (e^{-lam s} G(r) - G(r-s)) Lambda'(x, s) ds with the
        # sin^2 substitution absorbing the 1/sqrt endpoints of both factors
        def conv_f(w_arr):
            sn = np.sin(w_arr)
            cs = np.cos(w_arr)
            s = r * sn * sn
            lp = _lambda_prime(model, ctx0, x, s)
            gc = _gamma_comp(model, lam, ph, r * cs * cs)
            return (np.exp(-lam * s) * g_r - gc) * lp * (2.0 * r * sn * cs)

        conv = gl_adaptive(conv_f, 0.0, 0.5 * math.pi, tol_abs=_CONV_TOL,
                           tol_rel=_CONV_TOL, n0=48, nmax=384)

        # tail integral T~(r) = int_0^inf e^{-lam v} Lambda'(x, r+v) dv via v = -ln(1-t)/lam
        def tail_f(t_arr):
            v = -np.log1p(-t_arr) / lam
            return _lambda_prime(model, ctx0, x, r + v) / lam

        tail = gl_fixed(tail_f, 0.0, 1.0, 96)

        val = mean * ph * (conv + (psip + g_r * math.exp(-lam * r)) * tail)
        if val < 0.0:
            if val < -_NEG_DENSITY_CLAMP:
                raise NumericalError(
                    f"occupation density significantly negative at r={r:g}: {val!r}"
                )
            warnings.warn(f"occupation density clamped to 0 at r={r:g} ({val:.3e})")
            return 0.0
        return val

    return OccupationLaw(
        atom_at_zero=atom,
        density=density,
        model=model,
        x=x,
        lam=lam,
        decay_rate=_transform_decay_rate(model),
    )
