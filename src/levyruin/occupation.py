"""Poissonian occupation times below 0: transforms and the infinite-horizon law.

The occupation time accrues, within each negative excursion, from the first Poisson
observation epoch finding the surplus negative until the excursion's recovery to 0.
This module gives the joint transform of (first passage above b, occupation until
then), the transform of the total occupation O over an infinite horizon, and the
law of O: an atom at 0 plus a density, in closed form (Landriault, Renaud & Zhou,
SPA 2011).  Since Phi_p/p = 1/D(Phi_p, 0) and D(u, -zeta_0)/D(u, 0) = u/(u + zeta_0),
E_x[e^{-p O}] = atom + (1 - atom) zeta_0/(Phi_p + zeta_0) for x >= 0, so given O > 0
the density g depends on the model alone:

* Brownian, a = mu/(sqrt 2 sigma), z = a sqrt r: g(r) = (2a/sqrt(pi r)) (e^{-z^2} -
  sqrt(pi) z erfc z), the Laplace pair of 1/(sqrt(p + a^2) + a);
* Cramer-Lundberg: g = (c zeta_0/2 eta) Hbar, the tail of the M/M/1 busy-period density
  (Kleinrock 1975, ch. 5).

From x = -d < 0 the transform is k Z~_0(x, Phi_lam, Phi_p).  On Brownian models it
splits into two Laplace pairs with erfc-type inverses, so the density is a handful of
exp and erfcx terms (``_brownian_below_zero``).  On Cramer-Lundberg models
Phi_p/p = (1/c)(1 + (eta/c)/(Phi_p + zeta_0)) and (e^{-Phi_p d} - e^{-Phi_lam d})/(Phi_lam
- Phi_p) = int_0^d e^{-Phi_p y - Phi_lam (d - y)} dy, so the transform is e^{-Phi_lam d}
E_0[e^{-p O}] + E[X_1] Phi_lam int_0^inf e^{-Phi_p y} nu(y) dy, with m = min(y, d) and

  c nu(y) = e^{-Phi_lam (d - y)} 1{y < d}
            + (eta/c) e^{-Phi_lam (d - m) - zeta_0 (y - m)} (1 - e^{-(Phi_lam + zeta_0) m})
              / (Phi_lam + zeta_0).

e^{-Phi_p y} is the transform of tau_0^+ from -y: by Kendall's identity an atom
e^{-eta y/c} at y/c plus the density y alpha eta PE(eta t, alpha (c t - y)), PE =
``models._poisson_erlang``.  So the density is e^{-Phi_lam d} (1 - atom_0) g(t) +
E[X_1] Phi_lam [c nu(ct) e^{-eta t} + alpha eta int_0^{ct} y nu(y) PE(eta t, alpha (ct -
y)) dy], every term >= 0: one quadrature over the first-passage level y.

The transforms and the Brownian densities are ``math`` alone; the Cramer-Lundberg
densities load numpy, which is taken lazily (``util.lazy_module``), at their first
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, NumericalError
from .models import BROWNIAN, LevyModel, _poisson_erlang, phi
from .quadrature import gl_pieces
from .scale import _at, _ratio, _z_tilde_sum, rate_part, scale_context, z
from .util import clamp_unit, lazy_module, represented_rate, require_finite

np = lazy_module("numpy")

_SQRT_PI, _HALF_LOG_2PI = math.sqrt(math.pi), 0.5 * math.log(2.0 * math.pi)
_CUT = 40.0  # series windows and integration ranges drop terms below e^{-_CUT}
# erfc continued fraction: from where, and how deep, for 1e-16
_CF_FROM, _CF_DEPTH = 4.0, 30
_TOL = 1e-9  # relative tolerance of the quadratures
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a 53-bit mantissa into two halves


def _joint_lt_modes(model: LevyModel, q: float, p: float, lam: float) -> tuple:
    # (ctx, Z~_q(., Phi_{lam+q}, Phi_{p+q})): joint_lt_upcross less its level
    if lam <= 0.0:
        raise DomainError("joint_lt_upcross requires lam > 0")
    if p < 0.0 or q < 0.0:
        raise DomainError("joint_lt_upcross requires p >= 0 and q >= 0")
    lam = represented_rate(q, lam, "joint_lt_upcross")
    p = represented_rate(q, p, "joint_lt_upcross")
    ctx = scale_context(model, q)
    return ctx, _z_tilde_sum(ctx, phi(model, lam + q), phi(model, p + q))


def joint_lt_upcross(model: LevyModel, x: float, b: float, q: float, p: float,
                     lam: float) -> float:
    """E_x[ e^{-q tau_b^+ - p O_{tau_b^+, lam}} ; tau_b^+ < inf ]  for x <= b: the
    ratio Z~_q(x)/Z~_q(b) at (Phi_{lam+q}, Phi_{p+q}), regular at p = lam."""
    require_finite("joint_lt_upcross", "x b q p lam", x, b, q, p, lam)
    if x > b:
        raise DomainError("joint_lt_upcross requires x <= b")
    ctx, f = rate_part(_joint_lt_modes, model, q, p, lam)
    return clamp_unit(_ratio(ctx, f, x, b), "joint_lt_upcross")


def _occupation_inf(model: LevyModel, p: float, lam: float) -> tuple:
    # (ctx0, k, Phi_lam, Phi_p) with E_x[e^{-p O_{inf, lam}}] = k Z~_0(x, Phi_lam, Phi_p)
    model.require_positive_drift("lt_occupation_inf")
    if p <= 0.0 or lam <= 0.0:
        raise DomainError("lt_occupation_inf requires p > 0 and lam > 0")
    php = phi(model, p)
    phl = phi(model, lam)
    return scale_context(model, 0.0), model.mean() * (php / p) * (phl / lam), phl, php


def _occupation_inf_modes(model: LevyModel, p: float, lam: float) -> tuple:
    # (ctx0, k, Z~_0(., Phi_lam, Phi_p)): lt_occupation_inf less its level
    ctx0, k, phl, php = _occupation_inf(model, p, lam)
    return ctx0, k, _z_tilde_sum(ctx0, phl, php)


def lt_occupation_inf(model: LevyModel, x: float, p: float, lam: float) -> float:
    """E_x[ e^{-p O_{inf, lam}} ]; requires E[X_1] > 0."""
    require_finite("lt_occupation_inf", "x p lam", x, p, lam)
    ctx0, k, f = rate_part(_occupation_inf_modes, model, p, lam)
    return clamp_unit(k * _at(ctx0, f, x), "lt_occupation_inf")


def _two_product(a: float, b: float) -> tuple:
    # (p, e) with p = a b rounded and, where p is finite, p + e = a b exactly: Dekker's
    # TwoProduct (Numer. Math. 18, 1971), on the mantissas, so that no split overflows
    p = a * b
    if not (p and math.isfinite(p)):
        return p, 0.0
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    sa, sb = _SPLIT * ma, _SPLIT * mb
    ah, bh = sa - (sa - ma), sb - (sb - mb)
    al, bl = ma - ah, mb - bh
    m = ma * mb
    return p, math.ldexp(((ah * bh - m) + ah * bl + al * bh) + al * bl, ea + eb)


def _exact_dot(*pairs: tuple) -> float:
    # sum of a b over the pairs (a, b), rounded once (math.fsum of the exact parts of
    # each product); a product beyond the float range enters as +-inf, and fsum raises
    # ValueError on opposite infinities and OverflowError where a partial sum overflows
    return math.fsum(part for a, b in pairs for part in _two_product(a, b))


def _erfc_cf(z: float) -> float:
    # R with sqrt(pi) erfcx(z) = 1/(z + R) for z >= _CF_FROM, Laplace's continued fraction
    # (1/2)/(z + 1/(z + (3/2)/(z + ...))) of positive levels
    t = 0.0
    for n in range(_CF_DEPTH, 0, -1):
        t = 0.5 * n / (z + t)
    return t


def _erfcx(z: float) -> float:
    # e^{z^2} erfc z for z >= 0, without e^{z^2} alone from _CF_FROM on
    if z < _CF_FROM:
        return math.exp(z * z) * math.erfc(z)
    return 1.0 / (_SQRT_PI * (z + _erfc_cf(z)))


def _mills_gap(w: float) -> float:
    # 1/sqrt pi - w erfcx(w) for w >= 0; from w = 4 on as R/(sqrt pi (w + R)), free of
    # cancellation
    if w < _CF_FROM:
        return 1.0 / _SQRT_PI - w * _erfcx(w)
    cf = _erfc_cf(w)
    return cf / (_SQRT_PI * (w + cf))


def _stirlerr(n: float) -> float:
    # log n! - (n + 1/2) log n + n - log sqrt(2 pi) for n >= 1, by Stirling's series
    # where its terms would cancel
    if n < 10.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    u = 1.0 / (n * n)
    return (1 / 12 - u * (1 / 360 - u * (1 / 1260 - u * (1 / 1680 - u / 1188)))) / n


def _busy_period_tail(m: float, kappa: float, decay: float, r: np.ndarray) -> np.ndarray:
    """Hbar(r) = int_r^inf (kappa/t) I_1(kappa t) e^{-m t} dt on a 1-d array of r > 0.

    Hbar(r) = 2m sum_k C_k y^{k+1} P(Poisson(m r) <= 2k), C_k the Catalan numbers and
    y = (kappa/2m)^2: positive terms, peaking near k = kappa r/2 and falling like
    (kappa/m)^{2k} beyond, summed where they exceed e^{-_CUT} of the peak.  Both factors
    start from Stirling forms and go on by log-space recurrences.  Hbar(r) <
    kappa e^{-decay r}/(decay r) (decay = m - kappa, from I_1(u) < e^u) is 0 where
    that underflows.
    """
    out = np.zeros_like(r)
    live = np.log(kappa / decay) - np.log(r) - decay * r >= -746.0
    if not live.any():
        return out
    mu, log_4y = m * r[live], 2.0 * math.log(kappa / m)
    kc = 0.5 * (kappa / m) * mu
    k_lo = max(0, int((kc - np.sqrt(_CUT * 1.25 * kc)).min() - 5.0))
    k_hi = int(np.maximum(kc + np.sqrt(_CUT * 1.25 * kc),
                          0.5 * mu + np.sqrt(_CUT * 1.25 * mu)).max() + 5.0 - _CUT / log_4y)
    # log P(N = j) for j = 2 k_lo .. 2 k_hi, less its value at j = 2 k_lo
    j = np.arange(2 * k_lo + 1, 2 * k_hi + 1, dtype=float)
    log_p = np.zeros((len(mu), len(j) + 1))
    np.cumsum(np.log(mu[:, None] / j), axis=1, out=log_p[:, 1:])
    top = log_p.max(axis=1)
    cdf = np.cumsum(np.exp(log_p - top[:, None]), axis=1)[:, ::2]
    # log C_k y^{k+1} less its value at k_lo, by C_{k+1}/C_k = 4 (2k+1)/(2k+4)
    k = np.arange(k_lo, k_hi, dtype=float)
    log_c = np.concatenate(([0.0], np.cumsum(log_4y + np.log1p(-3.0 / (2.0 * k + 4.0)))))
    terms = log_c + np.log(cdf, out=np.full_like(cdf, -np.inf), where=cdf > 0.0)
    peak = terms.max(axis=1)
    # the anchors: log C_k y^{k+1} at k_lo, and Loader's saddle-point form of log P(N = j)
    log_cy = log_4y - 2.0 * math.log(2.0)
    if k_lo:
        log_cy += (k_lo * log_4y - 0.5 * math.log(math.pi * k_lo) - math.log(k_lo + 1.0)
                   + _stirlerr(2.0 * k_lo) - 2.0 * _stirlerr(k_lo))
        j0 = 2.0 * k_lo
        dev = (mu - j0) / j0
        log_p0 = (-j0 * (dev - np.log1p(dev)) - _HALF_LOG_2PI - 0.5 * math.log(j0)
                  - _stirlerr(j0))
    else:
        log_p0 = -mu
    out[live] = 2.0 * m * np.exp(log_cy + log_p0 + top + peak) * np.exp(
        terms - peak[:, None]).sum(axis=1)
    return out


def _positive_density(model: LevyModel, zeta0: float, k: float) -> Callable[[float], float]:
    """k g, g the density of O given O > 0 from any x >= 0, a function of the model
    alone, on one r > 0: the one call a density point makes."""
    if model.kind == BROWNIAN:
        # g(r) = (2a/sqrt(pi r)) (e^{-w^2} - sqrt(pi) w erfc w), w = a sqrt r; from w = 4 on
        # the bracket is e^{-w^2} R/(w + R), free of cancellation
        a = model.mu / (math.sqrt(2.0) * model.sigma)
        k2 = 2.0 * a * k / _SQRT_PI

        def g(r: float) -> float:
            sr = math.sqrt(r)
            w = a * sr
            if w < _CF_FROM:
                return k2 * (math.exp(-w * w) - _SQRT_PI * w * math.erfc(w)) / sr
            cf = _erfc_cf(w)
            return k2 * math.exp(-w * w) * cf / ((w + cf) * sr)

        return g
    # g = (c zeta_0/2 eta) Hbar on Cramer-Lundberg models
    m = model.eta + model.c * model.alpha
    kappa = 2.0 * math.sqrt(model.c * model.alpha * model.eta)
    decay, k = _transform_decay_rate(model), k * (model.c * zeta0 / (2.0 * model.eta))
    return lambda r: k * float(_busy_period_tail(m, kappa, decay, np.array([r]))[0])


def _brownian_below_zero(model: LevyModel, d: float, lam: float, ph: float,
                         atom0: float) -> Callable[[float], float]:
    """Density of O from x = -d < 0 on a Brownian model, on one t > 0, atom0 the atom
    from 0 (Landriault, Renaud & Zhou, SPA 2011).

    With a = mu/(sqrt 2 sigma), v = sqrt(lam + a^2), s = sigma sqrt(2t), A = (d - nu t)/s,
    G = e^{-((d - mu t)/s)^2} and E = e^{-Phi_lam d - a^2 t}, the transform's two Laplace
    pairs give f = atom0 (v - a) [E (1/sqrt pi - v sqrt t erfcx(v sqrt t))/sqrt t +
    G (v erfcx(-A) - a erfcx((d + mu t)/s))], two terms >= 0.  Where A >= 0, G erfcx(-A)
    = 2 e^{lam t - Phi_lam d} - G erfcx(A): e^{a^2 t} and e^{lam t} are never formed.
    d - mu t and d - nu t are formed exactly: far below 0 the law of tau_0^+ spreads over
    sqrt d, which the rounding of mu t at the scale of d would swamp.
    """
    mu, sigma = model.mu, model.sigma
    a = mu / (math.sqrt(2.0) * sigma)
    v = math.hypot(math.sqrt(lam), a)
    delta = lam / (v + a)  # v - a = sigma Phi_lam/sqrt 2, without the subtraction
    k0, lift = atom0 * delta, sigma * sigma * ph  # lift = nu - mu

    def density(t: float) -> float:
        rt = math.sqrt(t)
        s = math.sqrt(2.0) * sigma * rt
        w, y = _exact_dot((1.0, d), (-mu, t)) / s, delta * rt
        big_a, g = w - y, math.exp(-w * w)  # A = w - y: nu t never formed
        back = a * _erfcx(a * rt + d / s)
        if big_a < 0.0:
            # v erfcx(-A), from _CF_FROM on as (v/sqrt pi)/(-A + R): sqrt(pi) (-A + R)
            # overflows next to the float edge
            z = -big_a
            near = v * _erfcx(z) if z < _CF_FROM else v / _SQRT_PI / (z + _erfc_cf(z))
            far = g * (near - back)
        else:  # G e^{A^2} = e^{lam t - Phi_lam d}, an exponent -Phi_lam (d - nu t) - y^2
            rise = math.exp(-ph * _exact_dot((1.0, d), (-mu, t), (-lift, t)) - y * y)
            far = v * (2.0 * rise - g * _erfcx(big_a)) - g * back
        e = math.exp(-ph * d - a * a * t)
        return k0 * (e * _mills_gap(v * rt) / rt + far)

    return density


def _below_zero_density(model: LevyModel, d: float, ph: float, q0: float,
                        zeta0: float) -> Callable[[float], float]:
    """Density of O from x = -d < 0 on a Cramer-Lundberg model, q0 = 1 - atom_0 with
    atom_0 the atom from 0: e^{-Phi_lam d} q0 g(t) plus the law of tau_0^+ mixed over
    its start -y by E[X_1] Phi_lam nu(y) dy (module docstring), one quadrature in
    v = y - d, so that nu's exponents are exact for any d.  The Poisson-Erlang kernel
    takes a - b = eta t - alpha (ct - y) = alpha (y - E[X_1] t) as k + alpha v, with
    k = alpha d + eta t - alpha c t formed exactly, so that nothing rounds at the scale
    of d inside the sqrt d spread of tau_0^+; where k or the kernel's arguments (up to
    alpha c t and 2 sqrt(alpha c eta) t) leave the float range, that is a numerical
    error."""
    c, eta, alpha, mean = model.c, model.eta, model.alpha, model.mean()
    ac = _two_product(alpha, c)
    g = _positive_density(model, zeta0, q0 * math.exp(-ph * d))
    # E[X_1] Phi_lam nu at y = d + v is e^{Phi_lam min(v, 0) - zeta_0 max(v, 0)} times
    # (k 1{v < 0} + k_mix (1 - e^{-rate (d + min(v, 0))})).  e^{-746} rounds to 0 and
    # 1 - e^{-_CUT} to 1, so the exponents are clipped there: every product stays finite
    # and no value changes
    rate = ph + zeta0
    k = mean * ph / c
    k_mix, floor, cap = k * eta / (c * rate), -746.0 / ph, _CUT / rate

    def nu(v):
        below = np.minimum(v, 0.0)
        shape = np.exp(ph * np.maximum(below, floor) - zeta0 * np.maximum(v, 0.0))
        return shape * (k * (v < 0.0) - k_mix * np.expm1(-rate * np.minimum(below + d, cap)))

    def density(t: float) -> float:
        # the atom e^{-eta t} of tau_0^+ at t from -ct, and Kendall's density y alpha eta
        # PE(eta t, alpha (ct - y)) from every start -y above -ct; cuts where nu's
        # exponentials run out and around the bulk of X_t
        a, hi = eta * t, c * t - d
        try:
            k_ab = _exact_dot((alpha, d), (eta, t), (-ac[0], t), (-ac[1], t))
        except (ValueError, OverflowError):
            raise NumericalError(f"occupation density from x = {-d:g} at t = {t:g}: "
                                 "E[X_1] t - d leaves the float range") from None
        centre, width = -k_ab / alpha, 8.0 * math.sqrt(2.0 * a) / alpha
        cuts = sorted({-d, hi} | {v for v in (min(hi, 0.0) - _CUT / ph, 0.0, _CUT / zeta0,
                                              centre - width, centre + width) if -d < v < hi})

        def f(v: np.ndarray) -> np.ndarray:
            # (d + v) PE as (d + v)/a times a PE: PE alone underflows from d of about 1e200
            return ((d + v) / a * nu(v)
                    * _poisson_erlang(a, alpha * np.maximum(hi - v, 0.0), k_ab + alpha * v, a))

        try:
            with np.errstate(over="raise"):
                mixed = alpha * eta * gl_pieces(f, cuts, _TOL)
        except FloatingPointError:
            raise NumericalError(f"occupation density from x = {-d:g} at t = {t:g}: the "
                                 "Poisson-Erlang kernel's arguments leave the float range") from None
        return g(t) + c * math.exp(-a) * float(nu(hi)) + mixed

    return density


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
        """The tail-truncation rule r_max = (ln(1/tail_eps) + 5)/decay_rate, for
        0 < tail_eps < 1."""
        if not 0.0 < tail_eps < 1.0:
            raise DomainError(f"suggested_r_max requires 0 < tail_eps < 1, got {tail_eps!r}")
        return (math.log(1.0 / tail_eps) + 5.0) / self.decay_rate


def _transform_decay_rate(model: LevyModel) -> float:
    if model.kind == BROWNIAN:
        return model.mu ** 2 / (2.0 * model.sigma ** 2)
    return (math.sqrt(model.c * model.alpha) - math.sqrt(model.eta)) ** 2


def occupation_law(model: LevyModel, x: float, lam: float) -> OccupationLaw:
    """Atom-plus-density law of O_{inf, lam} started from x; requires E[X_1] > 0."""
    require_finite("occupation_law", "x lam", x, lam)
    model.require_positive_drift("occupation_law")
    if lam <= 0.0:
        raise DomainError("occupation_law requires lam > 0")
    ctx0 = scale_context(model, 0.0)
    ph = phi(model, lam)
    atom = clamp_unit(model.mean() * (ph / lam) * z(ctx0, x, ph), "occupation atom")
    atom0 = clamp_unit(model.mean() * (ph / lam), "occupation atom")  # from 0
    # 1 - atom0 = (psi(Phi_lam) - psi'(0) Phi_lam)/lam, formed without the subtraction,
    # which loses it as lam -> 0
    if model.kind == BROWNIAN:
        excess = 0.5 * model.sigma ** 2 * ph
    else:
        excess = model.eta * ph / (model.alpha * (model.alpha + ph))
    q0 = clamp_unit(excess * (ph / lam), "occupation atom complement")
    if x < 0.0 and model.kind == BROWNIAN:
        value = _brownian_below_zero(model, -x, lam, ph, atom0)
    elif x < 0.0:
        value = _below_zero_density(model, -x, ph, q0, ctx0.zeta_q)
    else:  # 1 - atom = e^{-zeta_0 x} P_0(O > 0)
        value = _positive_density(model, ctx0.zeta_q, q0 * math.exp(-ctx0.zeta_q * x))

    def density(r: float) -> float:
        r = float(r)
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"occupation density is defined for finite r > 0, got {r!r}")
        return value(r)

    return OccupationLaw(atom_at_zero=atom, density=density, model=model, x=x, lam=lam,
                         decay_rate=_transform_decay_rate(model))
