"""Scale functions of the two risk models, as two-mode exponential sums.

For both models and every q >= 0, psi_q = psi - q is rational with two real roots
Phi_q >= 0 >= -zeta_q (closed forms without cancellation:
:func:`levyruin.models._phi_zeta`), and 1/psi_q has no polynomial part.  So on
x >= 0 every scale quantity is c_Phi e^{Phi_q x} + c_zeta e^{-zeta_q x}, with
coefficients built from the residues A_r = 1/psi'(r) of 1/psi_q and the divided
differences D(theta, r) = (psi(theta) - psi(r)) / (theta - r), regular at
theta = r (Kuznetsov, Kyprianou & Rivero, 2012):

    W_q(x)          c_r = A_r
    Z_q(x, theta)   c_r = A_r D(theta, r)    (in theta, divided differences of D)
    Z~_q(x, a, b)   c_r = A_r D(a, r) D(b, r)

On x < 0, Z_q(x, theta) = e^{theta x}.  The second-generation scale function
W_q(xi + L) + p int_xi^{xi+L} W_{q+p}(xi + L - y) W_q(y) dy equals, for xi >= 0,
sum_r e^{r L} Z_q(xi, r) A'_r over the roots r of psi(r) = q + p with residues A'_r
(Loeffen, Renaud & Zhou, 2014): two-mode in xi again.  Since psi(r) - psi(s) = p at
the roots s of psi_q, sum_r A'_r D(r, s) = 1, and e^{r L} enters as expm1(r L).  Its
modes carry the scale e^{-Phi_{q+p} L}, which ratios and two-sided combinations do not
see, so any rate stays finite.  The difference quotients in a rate (the three-barrier
composite, the Gerber-Shiu densities, delayed_W_functional) are divided differences
of root-mode terms A' e^{r L} between two rates, :func:`_mode_dd`: as the rates differ
by (r_1 - r_2) psi[r_1, r_2], each is the exponential's divided difference over that
slope, with no tolerance, and the derivative in the rate where the two coincide.

Three operations act on the modes, each in one place: :func:`_at` evaluates;
:func:`_ratio` takes f(x)/f(b) and :func:`_two_sided` g(x) - f(x) g(b)/f(b) with
e^{Phi_q b} factored out, so that large levels do not overflow; :func:`_decay`
keeps the decaying part of a bounded quantity or a complement, whose growing
mode cancels.  On x < 0 they evaluate the quantity directly.  Every identity builds
what it passes to them, which reads neither x nor b, once per rate tuple through
:func:`rate_part`, so that a sweep along x or b repeats only the operation itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import DomainError
from .models import (BROWNIAN, LevyModel, _phi_zeta, _psi_any, _psi_prime_any, _psi_slopes,
                     _rate_slopes)
from .models import phi  # noqa: F401 - part of the levyruin.scale namespace


@dataclass(frozen=True)
class ScaleContext:
    """Cached roots and partial-fraction coefficients of 1/psi_q for one (model, q)."""

    model: LevyModel
    q: float
    phi_q: float
    zeta_q: float
    coeff_a: float
    coeff_b: float
    w0: float  # W_q(0) = coeff_a + coeff_b, exactly
    t_zeta: float  # alpha - zeta_q to full relative precision (-zeta_q on Brownian models)


# The bounds of the two caches: scale_context holds one small context per (model, q);
# rate_part holds an identity's modes (0.4-3.3 kB) per rate tuple, as many as an inner
# grid of rates in a sweep along x or b is likely to need and few enough to stay warm
CONTEXT_CACHE = 1 << 15
RATE_PART_CACHE = 1 << 6


@lru_cache(maxsize=CONTEXT_CACHE)
def scale_context(model: LevyModel, q: float) -> ScaleContext:
    """Build (and cache) the scale-function context for killing rate ``q``.

    Both roots come from one closed-form quadratic solve, so ``phi_q`` equals
    ``phi(model, q)`` bit for bit.  The residues are 1/psi'(r) at each root r;
    the test suite checks them against 1/psi_q.  Every finite q >= 0 gives a
    finite context.
    """
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise DomainError("scale context requires q >= 0")
    p, zeta = _phi_zeta(model, q)
    if p + zeta <= 1e-12:
        raise DomainError(
            "degenerate scale function: psi_q has a double root at 0 "
            "(q = 0 with E[X_1] = 0 is not supported)"
        )
    a = 1.0 / _psi_prime_any(model, p)
    if model.kind == BROWNIAN:
        t, b = -zeta, 1.0 / _psi_prime_any(model, -zeta)
    else:
        # the roots t of c t^2 - (c alpha + eta + q) t + alpha eta are theta + alpha at
        # theta = Phi_q, -zeta_q: their product gives alpha - zeta_q without a subtraction.
        # Where alpha eta / t^2 overflows, the residue rounds to -0
        t = model.alpha * model.eta / model.c / (p + model.alpha)
        b = 1.0 / (model.c - model.alpha * model.eta / t / t)
    # W_q(0) is 0 with a Gaussian part and 1/c for a bounded-variation drift c
    w0 = 0.0 if model.sigma > 0.0 else 1.0 / model.c
    return ScaleContext(model=model, q=q, phi_q=p, zeta_q=zeta, coeff_a=a, coeff_b=b, w0=w0,
                        t_zeta=t)


def _call(make: Callable, *args) -> object:
    return make(*args)


# operator.call (Python 3.11) calls make from C, without a frame of its own
rate_part = lru_cache(maxsize=RATE_PART_CACHE, typed=True)(getattr(operator, "call", _call))
rate_part.__doc__ = """``rate_part(make, model, *params)``: ``make(model, *params)``, cached:
the part of an identity that reads no level.

Each identity has a function ``make``, private to its module, that builds everything
reading neither x nor b (the domain checks of its other parameters, their roots and
residues, its modes and constant factors), and a level step, which checks that every
parameter is finite, checks x and b, takes the rate part from here and applies one
of the operations above.  A hit returns the object the miss built, so the level step
sees the same bits; an exception is raised again at every call, as nothing is stored
for it.  ``typed``: an int and a float of equal value, whose arithmetic can differ,
are separate keys; 0.0 and -0.0 share one."""


def w(ctx: ScaleContext, x: float) -> float:
    """q-scale function W_q(x); identically 0 for x < 0.

    Evaluated as A e^{Phi x} (1 - e^{-(Phi + zeta) x}) + W_q(0) e^{-zeta x}, so
    W_q(0) is exact (0 on Brownian models, where A + B rounds to +-1e-17).
    """
    return _w_at(ctx, x, 0.0)


def _w_at(ctx: ScaleContext, x: float, shift: float) -> float:
    # W_q(x) e^{-Phi_q shift}
    if x < 0.0:
        return 0.0
    return (-ctx.coeff_a * math.exp(ctx.phi_q * (x - shift))
            * math.expm1(-(ctx.phi_q + ctx.zeta_q) * x)
            + ctx.w0 * math.exp(-ctx.zeta_q * x - ctx.phi_q * shift))


def w_prime(ctx: ScaleContext, x: float) -> float:
    """Derivative of W_q on (0, inf); W_q may be non-differentiable at 0."""
    if x <= 0.0:
        raise DomainError("w_prime requires x > 0")
    return (ctx.coeff_a * ctx.phi_q * math.exp(ctx.phi_q * x)
            - ctx.coeff_b * ctx.zeta_q * math.exp(-ctx.zeta_q * x))


def _roots(ctx: ScaleContext) -> tuple:
    # (root r, residue 1/psi'(r), r + alpha) of 1/psi_q: W_q(x) = sum of residue * e^{r x}
    return ((ctx.phi_q, ctx.coeff_a, ctx.phi_q + ctx.model.alpha),
            (-ctx.zeta_q, ctx.coeff_b, ctx.t_zeta))


def _dd_exp(r1: float, r2: float, y: float, shift: float = 0.0) -> float:
    """(e^{r1 y} - e^{r2 y}) / (r1 - r2) e^{-shift}, y e^{r1 y - shift} at r1 == r2: taken as
    e^{r y} expm1(d y) / d from the larger r y, so that expm1 lies in (-1, 0] and nothing
    cancels or overflows (McCurdy, Ng & Parlett, Math. Comp. 43, 1984)."""
    if r1 * y < r2 * y:
        r1, r2 = r2, r1
    d = r2 - r1
    return math.exp(r1 * y - shift) * (math.expm1(d * y) / d if d else y)


def _pairs(ctx_1: ScaleContext, ctx_2: ScaleContext) -> tuple:
    # the roots of psi = q_1 and psi = q_2 by branch, Phi first, as (r_1, A_1, t_1, r_2, A_2,
    # t_2, s, dA): s = psi[r_1, r_2] = (q_1 - q_2) / (r_1 - r_2), dA = (A_1 - A_2) / (q_1 - q_2)
    m, ta, tb = ctx_1.model, ctx_1.phi_q + ctx_1.model.alpha, ctx_2.phi_q + ctx_2.model.alpha
    return ((ctx_1.phi_q, ctx_1.coeff_a, ta, ctx_2.phi_q, ctx_2.coeff_a, tb)
            + _rate_slopes(m, ta, tb, ctx_1.coeff_a, ctx_2.coeff_a),
            (-ctx_1.zeta_q, ctx_1.coeff_b, ctx_1.t_zeta, -ctx_2.zeta_q, ctx_2.coeff_b, ctx_2.t_zeta)
            + _rate_slopes(m, ctx_1.t_zeta, ctx_2.t_zeta, ctx_1.coeff_b, ctx_2.coeff_b))


def _mode_dd(pair: tuple, y: float, shift: float = 0.0) -> float:
    """The divided difference in the rate of a root-mode term, (A_1 e^{r_1 y} - A_2
    e^{r_2 y}) / (q_1 - q_2) e^{-shift}, for a pair of :func:`_pairs`: as q_1 - q_2 =
    (r_1 - r_2) psi[r_1, r_2], it is A_1 [e^{r y}] / psi[r_1, r_2] + [A] e^{r_2 y}, with
    [e^{r y}] from :func:`_dd_exp`, and at q_1 = q_2 the q-derivative."""
    r1, a1, _, r2, _, _, s, da = pair
    return a1 * _dd_exp(r1, r2, y, shift) / s + da * math.exp(r2 * y - shift)


# A scale quantity f is a tuple (c_Phi, c_zeta, neg, args[, moments]): its modes on x >= 0,
# and neg(y, *args), its value at y < 0, which is called only there.


def _neg(f: tuple, y: float) -> float:
    return f[2](y, *f[3])


def _lin(u: float, f: tuple, v: float, g: tuple) -> tuple:
    # u f + v g
    return u * f[0] + v * g[0], u * f[1] + v * g[1], _lin_neg, (u, f, v, g)


def _lin_neg(y: float, u: float, f: tuple, v: float, g: tuple) -> float:
    return u * _neg(f, y) + v * _neg(g, y)


def _at(ctx: ScaleContext, f: tuple, x: float, shift: float = 0.0) -> float:
    """f(x) e^{-Phi_q shift}."""
    if x < 0.0:
        return _neg(f, x) * math.exp(-ctx.phi_q * shift)
    return (f[0] * math.exp(ctx.phi_q * (x - shift))
            + f[1] * math.exp(-ctx.zeta_q * x - ctx.phi_q * shift))


def _ratio(ctx: ScaleContext, f: tuple, x: float, b: float) -> float:
    """f(x) / f(b) for x <= b, with e^{Phi_q (x - b)} factored out of both."""
    s = max(b, 0.0)
    return _at(ctx, f, x, s) / _at(ctx, f, b, s)


def _two_sided(ctx: ScaleContext, g: tuple, f: tuple, x: float, b: float) -> float:
    """g(x) - f(x) g(b) / f(b) for x <= b, which vanishes at x = b.

    On x >= 0 the modes combine into (g_zeta f_Phi - f_zeta g_Phi) e^{-zeta_q x}
    (1 - e^{(Phi_q + zeta_q)(x - b)}) / (f(b) e^{-Phi_q b}): no growing mode is
    evaluated, and only the determinant of the coefficients can cancel; taken from the
    moments of :func:`_z_terms`, a large multiple of f in g does not cancel in it.  Where
    the last factors underflow the value is 0.
    """
    s = max(b, 0.0)
    fb = _at(ctx, f, b, s)
    if x < 0.0:
        return _neg(g, x) - _neg(f, x) * _at(ctx, g, b, s) / fb
    if len(g) == len(f) == 5:  # both carry moments (W, F): see _z_terms
        (w_g, f_g), (w_f, f_f) = g[4], f[4]
        # A_Phi A_zeta (u_zeta v_Phi - v_zeta u_Phi) is 1 or -alpha eta / c over Phi_q + zeta_q
        m = ctx.model
        k = (1.0 if m.kind == BROWNIAN else -m.alpha * m.eta / m.c) / (ctx.phi_q + ctx.zeta_q)
        return _across(ctx, k * ((w_g * f_f - f_g * w_f) / fb), x, b)
    return _across(ctx, g[1] * (f[0] / fb) - (f[1] / fb) * g[0], x, b)


def _across(ctx: ScaleContext, det: float, x: float, b: float) -> float:
    """det e^{-zeta_q x} (1 - e^{(Phi_q + zeta_q)(x - b)}) for 0 <= x <= b: the two-sided
    combination of :func:`_two_sided` from the determinant of its modes over f(b)
    e^{-Phi_q b}; 0 where the factor underflows."""
    gap = -math.exp(-ctx.zeta_q * x) * math.expm1((ctx.phi_q + ctx.zeta_q) * (x - b))
    return det * gap if gap else 0.0


def _decay(ctx: ScaleContext, f: tuple, x: float) -> float:
    """f without its growing mode, which cancels in a bounded quantity or in the
    complement of one; f(x) on x < 0."""
    return _neg(f, x) if x < 0.0 else f[1] * math.exp(-ctx.zeta_q * x)


def _z_sum(ctx: ScaleContext, theta: float, t: float | None = None,
           theta2: float | None = None, t2: float | None = None) -> tuple:
    # Z_q(., theta), or its divided difference in theta to theta2: a one-term _z_terms
    return _z_terms(ctx, ((1.0, theta, t, theta2, t2),))


def _z_terms(ctx: ScaleContext, terms: tuple) -> tuple:
    # sum over (c, theta, t, theta2, t2) of c Z_q(., theta), or with theta2 of c (Z_q(., theta)
    # - Z_q(., theta2)) / (theta - theta2) (at theta2 = theta the derivative); t, t2: theta +
    # alpha, theta2 + alpha where known to full precision (a root next to -alpha).  As
    # D(theta, s) = u_s + v_s phi(theta + alpha), phi(t) = t (Brownian) or 1/t, the modes are
    # A_s (u_s W + v_s F) in the moments W = sum c, F = sum c phi(t) (phi[t, t2], no weight,
    # for a divided difference), which are returned for _two_sided
    m, w, f = ctx.model, 0.0, 0.0
    if m.kind == BROWNIAN:  # u_s = mu + s sigma^2/2, v_s = sigma^2/2, t = theta
        for c, theta, _, theta2, _ in terms:
            w, f = (w + c, f + c * theta) if theta2 is None else (w, f + c)
        h = 0.5 * m.sigma ** 2
        d_phi, d_zeta = (m.mu + h * ctx.phi_q) * w + h * f, (m.mu - h * ctx.zeta_q) * w + h * f
    else:  # u_s = c, v_s = -alpha eta / (s + alpha)
        al = m.alpha
        for c, theta, t, theta2, t2 in terms:
            t = theta + al if t is None else t
            w, f = (w + c, f + c / t) if theta2 is None else (
                w, f - c / t / (theta2 + al if t2 is None else t2))
        ae = al * m.eta
        d_phi, d_zeta = m.c * w - ae / (ctx.phi_q + al) * f, m.c * w - ae / ctx.t_zeta * f
    return ctx.coeff_a * d_phi, ctx.coeff_b * d_zeta, _z_neg, (terms,), (w, f)


def _z_neg(y: float, terms: tuple) -> float:
    # Z_q(y, theta) = e^{theta y} below 0
    return sum(c * (math.exp(theta * y) if theta2 is None else _dd_exp(theta, theta2, y))
               for c, theta, _, theta2, _ in terms)


def _z_tilde_sum(ctx: ScaleContext, a: float, b: float) -> tuple:
    # Z~_q(., a, b): modes A_r D(a, r) D(b, r), symmetric in (a, b)
    m, phi_q, r = ctx.model, ctx.phi_q, -ctx.zeta_q
    t = ctx.t_zeta
    (a_phi, a_zeta), (b_phi, b_zeta) = (_psi_slopes(m, a, phi_q, r, t2=t),
                                        _psi_slopes(m, b, phi_q, r, t2=t))
    return (ctx.coeff_a * (a_phi * b_phi), ctx.coeff_b * (a_zeta * b_zeta), _z_tilde_neg,
            (m, ctx.q, a, b))


def _z_tilde_neg(y: float, m: LevyModel, q: float, a: float, b: float) -> float:
    # (psi_q(a) e^{b y} - psi_q(b) e^{a y}) / (a - b) = -psi_q(lo) [e^{. y}] + psi[lo, hi]
    # e^{lo y}, with [e^{. y}] the divided difference of the exponential between lo and hi
    lo, hi = min(a, b), max(a, b)
    return (_psi_slopes(m, lo, hi, hi)[0] * math.exp(lo * y)
            - (_psi_any(m, lo) - q) * _dd_exp(hi, lo, y))


def z(ctx: ScaleContext, x: float, theta: float) -> float:
    """Companion scale function Z_q(x, theta); equals e^{theta x} for x < 0."""
    theta = float(theta)
    if not math.isfinite(theta) or theta < 0.0:
        raise DomainError("z requires theta >= 0")
    return _at(ctx, _z_sum(ctx, theta), x)


def z_tilde(ctx: ScaleContext, x: float, alpha: float, beta: float) -> float:
    """Divided-difference combination of Z_q at two exponents (symmetric in them):
    (psi_q(a) Z_q(x,b) - psi_q(b) Z_q(x,a)) / (a - b), with no confluence branch on
    x >= 0, and psi_q'(a) Z_q(x,a) - psi_q(a) dZ_q/dtheta(x,a) as b -> a."""
    if alpha < 0.0 or beta < 0.0:
        raise DomainError("z_tilde requires alpha, beta >= 0")
    return _at(ctx, _z_tilde_sum(ctx, float(alpha), float(beta)), x)


def script_w(ctx: ScaleContext, p_extra: float, a: float, x: float) -> float:
    """Second-generation scale function: W_q corrected by a convolution from ``a``.

        W_q(x) + p_extra * int_a^x W_{q+p_extra}(x - y) W_q(y) dy

    evaluated in closed form as sum_r e^{r (x - a)} Z_q(a, r) / psi'(r) over the two
    roots r of psi = q + p_extra.  Reduces to W_q(x) for x <= a or p_extra = 0.
    Since W_q vanishes on the negative axis, a < 0 is equivalent to a = 0, where
    the sum is W_{q+p_extra}(x).
    """
    p_extra = float(p_extra)
    if ctx.q + p_extra < 0.0:
        raise DomainError("script_w requires q + p_extra >= 0")
    a = max(a, 0.0)
    if p_extra == 0.0 or x <= a:
        return w(ctx, x)
    ctx_p = scale_context(ctx.model, ctx.q + p_extra)
    return _at(ctx, _script_w_sum(ctx, ctx_p, x - a), a) * math.exp(ctx_p.phi_q * (x - a))


def _script_w_sum(ctx: ScaleContext, ctx_p: ScaleContext, length: float) -> tuple:
    # script_w(ctx, p_extra, xi, xi + length) as a function of xi, times e^{-Phi length},
    # where ctx_p is the context of the total rate q + p_extra (taken as given, so that a
    # rate below the float resolution of q is not lost to q + p_extra - q) and
    # Phi = Phi_{q+p_extra}: the modes B_s sum_r A'_r D(r, s) e^{(r - Phi) length} over the
    # roots r of psi = q + p_extra, with residues A'_r = dr/dp_extra and B = (A, -A) on
    # Brownian models, so that W_q(0) = 0 stays exact.  sum_r A'_r D(r, s) = 1 for every
    # p_extra, so e^{r length} enters as expm1, which does not cancel at short lengths.  A
    # root next to the pole of a Cramer-Lundberg psi' has a residue that rounds to 0 and
    # is skipped
    model, s_phi, s_zeta, t_zeta = ctx.model, ctx.phi_q, -ctx.zeta_q, ctx.t_zeta
    ph = ctx_p.phi_q
    scale = math.exp(-ph * length)
    c_phi = c_zeta = scale
    for r, ar, tr in _roots(ctx_p):
        if not ar:
            continue
        # (e^{r length} - 1) e^{-Phi length}; r > 0 is Phi itself
        em = -math.expm1(-r * length) if r > 0.0 else math.expm1(r * length) * scale
        d_phi, d_zeta = _psi_slopes(model, r, s_phi, s_zeta, 0, tr, t_zeta)
        c_phi += ar * d_phi * em
        c_zeta += ar * d_zeta * em
    return (ctx.coeff_a * c_phi, (ctx.coeff_b if ctx.w0 else -ctx.coeff_a) * c_zeta, _shifted,
            (ctx_p, length))


def _shifted(y: float, ctx_p: ScaleContext, length: float) -> float:
    # script_w from y < 0 to y + length times its scale: W_{q+p_extra}(y + length)
    return _w_at(ctx_p, y + length, length)


def _w_tilde_sum(ctx: ScaleContext, p: float, lam: float, a: float) -> tuple:
    # the three-barrier composite lam W_{q+lam}(a) scriptW^{(q,p)}(xi, xi + a) - p W_{q+p}(a)
    # scriptW^{(q,lam)}(xi, xi + a) over p - lam, times e^{-(Phi_{q+p} + Phi_{q+lam}) a}: with
    # [.] the divided difference in the rate, W = sum_s E_s and scriptW = sum_s E_s Z_q(., s),
    # E_s = A'_s e^{s a}, it is lam W^lam [scriptW] - [rho W] scriptW^lam = sum_s c_s
    # Z_q(., s^lo) + d_s [Z_q(., s)] by the product rule, on Z_q at the lower rate (moderate
    # modes), with c_Phi = -lam M - W^p E^lam_Phi, c_r = lam M - W^p E^lam_r, d_s = rho^lo W^lo
    # E^hi_s and M = E^lam_Phi [E_r] - [E_Phi] E^lam_r: the products E_s [E_s] cancel unformed
    m = ctx.model
    ctx_l, ctx_p = scale_context(m, ctx.q + lam), scale_context(m, ctx.q + p)
    pf, pr = _pairs(ctx_p, ctx_l)
    php, a_fp, t_fp, phl, a_fl, t_fl, s_f = pf[:7]
    rp, a_rp, t_rp, rl, a_rl, t_rl, s_r = pr[:7]
    hi = max(php, phl)
    e_rp, e_rl = a_rp * math.exp((rp - php) * a), a_rl * math.exp((rl - phl) * a)
    mm = (lam * a_fl * _mode_dd(pr, a, php * a)
          - lam * _mode_dd(pf, a, hi * a) * a_rl * math.exp((hi - php + rl - phl) * a))
    w_l, w_p = _w_at(ctx_l, a, a), _w_at(ctx_p, a, a)
    w_lo, e_f, e_r, ph_lo, t_flo, r_lo, t_rlo = (p * w_p, a_fl, e_rl, php, t_fp, rp, t_rp) if (
        p < lam) else (lam * w_l, a_fp, e_rp, phl, t_fl, rl, t_rl)
    c_phi, c_zeta, neg, args, _ = _z_terms(ctx, ((mm - w_p * e_rl, r_lo, t_rlo, None, None),
                                                 (-mm - w_p * a_fl, ph_lo, t_flo, None, None),
                                                 (w_lo * e_f / s_f, php, t_fp, phl, t_fl),
                                                 (w_lo * e_r / s_r, rp, t_rp, rl, t_rl)))
    # at xi = 0 the composite is (lam - p) W_{q+lam}(a) W_{q+p}(a); on Brownian models the
    # decaying mode is taken from that value, so that W_q(0) = 0 keeps it exact at short a
    return c_phi, -w_l * w_p - c_phi if not ctx.w0 else c_zeta, neg, args


def w_tilde(model: LevyModel, q: float, p: float, lam: float, x: float, a: float) -> float:
    """Composite scale function for the three-barrier identity,
    lam scriptW_x^{(q,p)}(x+a) W_{q+lam}(a) - p scriptW_x^{(q,lam)}(x+a) W_{p+q}(a),
    whose inner convolutions start at the evaluation point x itself."""
    if a < 0.0:
        raise DomainError("w_tilde requires a >= 0")
    if p <= 0.0 or lam <= 0.0:
        raise DomainError("w_tilde requires p > 0 and lam > 0")
    ctx = scale_context(model, q)
    scale = scale_context(model, q + p).phi_q + scale_context(model, q + lam).phi_q
    return (p - lam) * _at(ctx, _w_tilde_sum(ctx, p, lam, a), x) * math.exp(scale * a)
