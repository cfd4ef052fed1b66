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
exp and erfcx terms (``_brownian_below_zero``).  On Cramer-Lundberg models the strong
Markov property at tau = tau_0^+ splits O into independent parts O_init = (tau -
e_lam)^+, e_lam the first observation epoch, and O_0, the occupation from 0 with atom
atom_0.  So the density is e^{-Phi_lam d} (1 - atom_0) g + atom_0 f_init + (1 - atom_0)
f_init * g, with f_init(s) = lam E[e^{-lam (tau - s)}; tau > s].  g is the law of tau
from -U, U ~ Exp(zeta_0), so the convolution is a mixture of f_init over the start -(d +
U) less e^{-Phi_lam d} times the smoothing of g over e_lam; the density is evaluated as
a sum of nonnegative terms, with one quadrature over U and one inside f_init.

The transforms and the Brownian densities are ``math`` alone; the Cramer-Lundberg
densities load numpy, which is taken lazily (``util.lazy_module``), at their first
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError
from .models import BROWNIAN, LevyModel, _poisson_erlang, _psi_second_any, phi
from .quadrature import gl_batch, gl_pieces
from .scale import _ratio, _z_tilde_sum, scale_context, z, z_tilde
from .util import clamp_unit, lazy_module, represented_rate, require_finite

np = lazy_module("numpy")

_SQRT_PI, _HALF_LOG_2PI = math.sqrt(math.pi), 0.5 * math.log(2.0 * math.pi)
_CUT = 40.0  # series windows and integration ranges drop terms below e^{-_CUT}
# erfc continued fraction: from where, and how deep, for 1e-16
_CF_FROM, _CF_DEPTH = 4.0, 30
_TOL = 1e-9  # relative tolerance of the quadratures


def joint_lt_upcross(model: LevyModel, x: float, b: float, q: float, p: float,
                     lam: float) -> float:
    """E_x[ e^{-q tau_b^+ - p O_{tau_b^+, lam}} ; tau_b^+ < inf ]  for x <= b: the
    ratio Z~_q(x)/Z~_q(b) at (Phi_{lam+q}, Phi_{p+q}), regular at p = lam."""
    require_finite("joint_lt_upcross", "x b q p lam", x, b, q, p, lam)
    if x > b:
        raise DomainError("joint_lt_upcross requires x <= b")
    if lam <= 0.0:
        raise DomainError("joint_lt_upcross requires lam > 0")
    if p < 0.0 or q < 0.0:
        raise DomainError("joint_lt_upcross requires p >= 0 and q >= 0")
    lam = represented_rate(q, lam, "joint_lt_upcross")
    p = represented_rate(q, p, "joint_lt_upcross")
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
    require_finite("lt_occupation_inf", "x p lam", x, p, lam)
    ctx0, k, phl, php = _occupation_inf(model, p, lam)
    return clamp_unit(k * z_tilde(ctx0, x, phl, php), "lt_occupation_inf")


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
    m, kappa, decay, scale = _busy_period(model, zeta0)
    k *= scale
    return lambda r: k * float(_busy_period_tail(m, kappa, decay, np.array([r]))[0])


def _busy_period(model: LevyModel, zeta0: float) -> tuple:
    # (m, kappa, decay, scale) with g = scale Hbar on Cramer-Lundberg models
    m = model.eta + model.c * model.alpha
    kappa = 2.0 * math.sqrt(model.c * model.alpha * model.eta)
    return m, kappa, _transform_decay_rate(model), model.c * zeta0 / (2.0 * model.eta)


def _brownian_below_zero(model: LevyModel, d: float, lam: float, ph: float,
                         atom0: float) -> Callable[[float], float]:
    """Density of O from x = -d < 0 on a Brownian model, on one t > 0, atom0 the atom
    from 0 (Landriault, Renaud & Zhou, SPA 2011).

    With a = mu/(sqrt 2 sigma), v = sqrt(lam + a^2), s = sigma sqrt(2t), A = (d - nu t)/s,
    G = e^{-((d - mu t)/s)^2} and E = e^{-Phi_lam d - a^2 t}, the transform's two Laplace
    pairs give f = atom0 (v - a) [E (1/sqrt pi - v sqrt t erfcx(v sqrt t))/sqrt t +
    G (v erfcx(-A) - a erfcx((d + mu t)/s))], two terms >= 0.  Where A >= 0, G erfcx(-A)
    = 2 e^{lam t - Phi_lam d} - G erfcx(A): e^{a^2 t} and e^{lam t} are never formed.
    """
    mu, sigma = model.mu, model.sigma
    a = mu / (math.sqrt(2.0) * sigma)
    v = math.hypot(math.sqrt(lam), a)
    delta = lam / (v + a)  # v - a = sigma Phi_lam/sqrt 2, without the subtraction
    k0, lift = atom0 * delta, sigma * sigma * ph  # lift = nu - mu

    def density(t: float) -> float:
        rt = math.sqrt(t)
        s = math.sqrt(2.0) * sigma * rt
        w, y = (d - mu * t) / s, delta * rt
        big_a, g = w - y, math.exp(-w * w)  # A = w - y: nu t never formed
        back = a * _erfcx(a * rt + d / s)
        if big_a < 0.0:
            # v erfcx(-A), from _CF_FROM on as (v/sqrt pi)/(-A + R): sqrt(pi) (-A + R)
            # overflows next to the float edge
            z = -big_a
            near = v * _erfcx(z) if z < _CF_FROM else v / _SQRT_PI / (z + _erfc_cf(z))
            far = g * (near - back)
        else:  # G e^{A^2} = e^{lam t - Phi_lam d}, an exponent -Phi_lam (d - nu t) - y^2
            rise = math.exp(-ph * (d - mu * t - lift * t) - y * y)
            far = v * (2.0 * rise - g * _erfcx(big_a)) - g * back
        e = math.exp(-ph * d - a * a * t)
        return k0 * (e * _mills_gap(v * rt) / rt + far)

    return density


def _density_drop(model: LevyModel, zeta0: float, lam: float) -> Callable[[float], float]:
    """drop(t) = g(t) - E[g(t + e_lam)] = int_0^inf e^{-lam v} (-g')(t + v) dv, e_lam ~
    Exp(lam), on one t > 0 on a Cramer-Lundberg model."""
    # -Hbar' is the M/M/1 busy-period density (kappa/t) I_1(kappa t) e^{-m t} =
    # (kappa^2/2) PE(eta t, c alpha t), PE = models._poisson_erlang, which falls like
    # e^{-decay t} times a power of t from t = 1/m on: its smoothing runs over v = h
    # expm1(theta) up to reach = _CUT/(lam + decay), h = min(max(t, 1/m), reach),
    # logarithmic where the reach is long
    m, kappa, decay, scale = _busy_period(model, zeta0)
    reach = _CUT / (lam + decay)

    def drop(t: float) -> float:
        h = min(max(t, 1.0 / m), reach)

        def smoothed(th: np.ndarray) -> np.ndarray:
            v = h * np.expm1(th)
            return (h * np.exp(th - lam * v)
                    * _poisson_erlang(model.eta * (t + v), model.c * model.alpha * (t + v)))

        return scale * 0.5 * kappa * kappa * gl_pieces(smoothed, (0.0, math.log1p(reach / h)),
                                                       _TOL)

    return drop


def _times(ph: float, y: np.ndarray) -> np.ndarray:
    # ph y, and inf where that passes 1e308: where f_init takes e^{lam s - ph y} (s <= y/c)
    # the exponent is then far below -746
    return np.multiply(ph, y, out=np.full_like(y, np.inf), where=y < 1e308 / ph)


def _initial_density(model: LevyModel, lam: float, ph: float) -> Callable:
    """f_init(s, y) = lam E[e^{-lam (tau - s)}; tau > s] for tau = tau_0^+ from -y < 0 on a
    Cramer-Lundberg model, elementwise on 1-d arrays s > 0 and y > 0 of one length."""
    # tau >= y/c, with an atom there, so below it f_init = lam e^{lam s} E[e^{-lam tau}].
    # Beyond it f_init = int_0^inf e^{-v} f_tau(s + v/lam) dv with Kendall's f_tau(t) =
    # (y/t) P(X_t in dy) = y alpha eta PE(eta t, alpha (c t - y)).  Past the bulk of tau
    # the integrand falls like e^{-(lam + decay) (t - s)}; the bulk ends where P(tau > t)
    # <= e^{slope y - decay t} (the martingale e^{theta X_t - psi(theta) t} at the
    # minimiser -slope of psi, where psi = -decay) passes e^{-_CUT}.  The rule runs in
    # theta, v = lam h expm1(theta) with h = min(max(s, 1/m), reach/lam): nearly linear
    # over a short reach, logarithmic over a long one (lam << decay), across which f_tau
    # falls like a power of t.
    decay, m = _transform_decay_rate(model), model.eta + model.c * model.alpha
    slope = model.alpha - math.sqrt(model.alpha * model.eta / model.c)

    def integrand(s: np.ndarray, y: np.ndarray, lh: np.ndarray, th: np.ndarray) -> np.ndarray:
        v = lh * np.expm1(th)
        t = s + v / lam
        b = np.maximum(model.alpha * (model.c * t - y), 0.0)
        return (lh * np.exp(th - v) * y * model.alpha * model.eta
                * _poisson_erlang(model.eta * t, b))

    def f_init(s: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.empty_like(s)
        before = s < y / model.c  # here lam s - Phi_lam y <= (lam/c - Phi_lam) y <= 0
        out[before] = lam * np.exp(lam * s[before] - _times(ph, y[before]))
        s, y = s[~before], y[~before]
        reach = np.minimum(_CUT, lam * (_CUT + np.maximum(0.0, slope * y - decay * s))
                           / (lam + decay))
        lh = lam * np.minimum(np.maximum(s, 1.0 / m), reach / lam)
        out[~before] = gl_batch(
            lambda rows, th: integrand(s[rows, None], y[rows, None], lh[rows, None], th),
            np.log1p(reach / lh), _TOL)
        return out

    return f_init


def _below_zero_density(model: LevyModel, d: float, lam: float, ph: float, atom0: float,
                        q0: float, zeta0: float) -> Callable[[float], float]:
    """Density of O from x = -d < 0 on a Cramer-Lundberg model by the strong-Markov split
    at tau_0^+, atom0 the atom from 0 and q0 = 1 - atom0."""
    f_init = _initial_density(model, lam, ph)
    drop = _density_drop(model, zeta0, lam)
    outside = math.exp(-ph * d)
    mean, var, rate = model.mean(), _psi_second_any(model, 0.0), zeta0 + ph

    def density(t: float) -> float:
        # f_init * g = E f_init(t, d + U) - e^{-Phi_lam d} E f_init(t, U), as g is the law
        # of tau_0^+ from -U (transform zeta_0/(Phi_p + zeta_0)), and g(t) - E f_init(t, U)
        # = g(t) - E[g(t + e_lam)] = drop(t): every term below is >= 0.  E f_init(t, d + U)
        # is one quadrature over U.  Beyond the bulk of tau_0^+ (y above t E[X_1] + 8 sd),
        # f_init(t, y) is close to lam e^{lam t - Phi_lam y}, so the integrand falls at rate
        # zeta_0 + Phi_lam; f_init jumps at y = c t.  The weight e^{-zeta_0 u} has its own
        # piece up to _CUT/rate, which the bulk misses where d is large
        centre, width = mean * t - d, 8.0 * math.sqrt(var * t)
        hi = max(0.0, centre + width) + _CUT / rate
        cuts = sorted({0.0, hi} | {u for u in (centre - width, centre + width, model.c * t - d,
                                               _CUT / rate) if 0.0 < u < hi})
        head = []  # f_init(t, d), from one more node, u = 0, in the first call

        def f(u: np.ndarray) -> np.ndarray:
            first = not head
            y = d + (np.append(u, 0.0) if first else u)
            vals = f_init(np.full_like(y, t), y)
            if first:
                head.append(float(vals[-1]))
                vals = vals[:-1]
            return zeta0 * np.exp(-zeta0 * u) * vals

        mixed = gl_pieces(f, cuts, _TOL)
        return atom0 * head[0] + q0 * (outside * drop(t) + mixed)

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
        value = _below_zero_density(model, -x, lam, ph, atom0, q0, ctx0.zeta_q)
    else:  # 1 - atom = e^{-zeta_0 x} P_0(O > 0)
        value = _positive_density(model, ctx0.zeta_q, q0 * math.exp(-ctx0.zeta_q * x))

    def density(r: float) -> float:
        r = float(r)
        if not (math.isfinite(r) and r > 0.0):
            raise DomainError(f"occupation density is defined for finite r > 0, got {r!r}")
        return value(r)

    return OccupationLaw(atom_at_zero=atom, density=density, model=model, x=x, lam=lam,
                         decay_rate=_transform_decay_rate(model))
