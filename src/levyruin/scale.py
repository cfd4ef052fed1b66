"""Scale functions of the two risk models, as two-mode exponential sums.

For both models and every q >= 0, psi_q = psi - q is rational with two real roots
Phi_q >= 0 >= -zeta_q (closed forms without cancellation:
:func:`levyruin.models._phi_zeta`), and 1/psi_q has no polynomial part.  So on
x >= 0 every scale quantity is c_Phi e^{Phi_q x} + c_zeta e^{-zeta_q x}, with
coefficients built from the residues A_r = 1/psi'(r) of 1/psi_q and the divided
differences D(theta, r) = (psi(theta) - psi(r)) / (theta - r), regular at
theta = r (Kuznetsov, Kyprianou & Rivero, 2012):

    W_q(x)          c_r = A_r
    Z_q(x, theta)   c_r = A_r D(theta, r)    (its theta-derivatives: A_r d^k D/dtheta^k)
    Z~_q(x, a, b)   c_r = A_r D(a, r) D(b, r)

On x < 0, Z_q(x, theta) = e^{theta x}.  The second-generation scale function
W_q(xi + L) + p int_xi^{xi+L} W_{q+p}(xi + L - y) W_q(y) dy equals, for xi >= 0,
sum_r e^{r L} Z_q(xi, r) A'_r over the roots r of psi(r) = q + p with residues A'_r
(Loeffen, Renaud & Zhou, 2014).  So it is two-mode in xi again, and so are its
derivative in p (from dr/dp = A'_r) and the three-barrier composite.  Since
psi(r) - psi(s) = p at the roots s of psi_q, sum_r A'_r D(r, s) = 1, and e^{r L}
enters as expm1(r L): W_q(0) stays exact at L = 0, and short windows do not cancel.

Three operations act on the modes, each in one place: :func:`_at` evaluates;
:func:`_ratio` takes f(x)/f(b) and :func:`_two_sided` g(x) - f(x) g(b)/f(b) with
e^{Phi_q b} factored out, so that large levels do not overflow; :func:`_decay`
keeps the decaying part of a bounded quantity or a complement, whose growing
mode cancels.  On x < 0 they evaluate the quantity directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .models import (BROWNIAN, LevyModel, _phi_zeta, _psi_any, _psi_prime_any, _psi_second_any,
                     _psi_slopes)
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


@lru_cache(maxsize=1 << 15)
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
    if model.kind != BROWNIAN and zeta == model.alpha:
        # at huge q zeta_q rounds to alpha, the pole of psi'(-zeta_q); 1/psi' tends to -0
        b = -0.0
    else:
        b = 1.0 / _psi_prime_any(model, -zeta)
    # W_q(0) is 0 with a Gaussian part and 1/c for a bounded-variation drift c
    w0 = 0.0 if model.sigma > 0.0 else 1.0 / model.c
    return ScaleContext(model=model, q=q, phi_q=p, zeta_q=zeta, coeff_a=a, coeff_b=b, w0=w0)


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
    # (root r, residue 1/psi'(r)) pairs of 1/psi_q: W_q(x) = sum of residue * e^{r x}
    return (ctx.phi_q, ctx.coeff_a), (-ctx.zeta_q, ctx.coeff_b)


# A scale quantity f is a tuple (c_Phi, c_zeta, neg, args): its modes on x >= 0, and
# neg(y, *args), its value at y < 0, which is called only there.


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
    evaluated, and only the determinant of the coefficients can cancel.  Where the
    last factors underflow the value is 0.
    """
    s = max(b, 0.0)
    fb = _at(ctx, f, b, s)
    if x < 0.0:
        return _neg(g, x) - _neg(f, x) * _at(ctx, g, b, s) / fb
    gap = -math.exp(-ctx.zeta_q * x) * math.expm1((ctx.phi_q + ctx.zeta_q) * (x - b))
    return (g[1] * (f[0] / fb) - (f[1] / fb) * g[0]) * gap if gap else 0.0


def _decay(ctx: ScaleContext, f: tuple, x: float) -> float:
    """f without its growing mode, which cancels in a bounded quantity or in the
    complement of one; f(x) on x < 0."""
    return _neg(f, x) if x < 0.0 else f[1] * math.exp(-ctx.zeta_q * x)


def _z_sum(ctx: ScaleContext, theta: float, k: int = 0) -> tuple:
    # Z_q(., theta), or its k-th theta-derivative: modes A_r d^k/dtheta^k D(theta, r)
    d_phi, d_zeta = _psi_slopes(ctx.model, theta, ctx.phi_q, -ctx.zeta_q, k)
    return ctx.coeff_a * d_phi, ctx.coeff_b * d_zeta, _z_neg, (theta, k)


def _z_neg(y: float, theta: float, k: int) -> float:
    return y ** k * math.exp(theta * y)


def _z_tilde_sum(ctx: ScaleContext, a: float, b: float) -> tuple:
    # Z~_q(., a, b): modes A_r D(a, r) D(b, r), symmetric in (a, b)
    m, phi_q, r = ctx.model, ctx.phi_q, -ctx.zeta_q
    (a_phi, a_zeta), (b_phi, b_zeta) = _psi_slopes(m, a, phi_q, r), _psi_slopes(m, b, phi_q, r)
    return (ctx.coeff_a * (a_phi * b_phi), ctx.coeff_b * (a_zeta * b_zeta), _z_tilde_neg,
            (m, ctx.q, a, b))


def _z_tilde_neg(y: float, m: LevyModel, q: float, a: float, b: float) -> float:
    # the divided difference of psi_q(theta) e^{theta y}; its derivative at confluence
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= 1e-8 * (1.0 + lo):
        mid = 0.5 * (lo + hi)
        return (_psi_prime_any(m, mid) - (_psi_any(m, mid) - q) * y) * math.exp(mid * y)
    return ((_psi_any(m, lo) - q) * math.exp(hi * y)
            - (_psi_any(m, hi) - q) * math.exp(lo * y)) / (lo - hi)


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
    return _at(ctx, _script_w_sum(ctx, p_extra, x - a), a)


def _script_w_dp(ctx: ScaleContext, p_extra: float, a: float, x: float) -> float:
    # derivative of script_w(ctx, p_extra, a, x) in p_extra
    a = max(a, 0.0)
    return _at(ctx, _script_w_sum(ctx, p_extra, x - a, dp=True), a) if x > a else 0.0


def _script_w_sum(ctx: ScaleContext, p_extra: float, length: float, dp: bool = False) -> tuple:
    # script_w(ctx, p_extra, xi, xi + length) as a function of xi, or with dp its
    # p_extra-derivative: the modes B_s sum_r A'_r D(r, s) e^{r length} over the roots r
    # of psi = q + p_extra, with residues A'_r = dr/dp_extra and B = (A, W_q(0) - A) so
    # that W_q(0) stays exact.  sum_r A'_r D(r, s) = 1 for every p_extra, so e^{r length}
    # enters as expm1, which does not cancel at short lengths
    model, s_phi, s_zeta = ctx.model, ctx.phi_q, -ctx.zeta_q
    c_phi = c_zeta = 0.0 if dp else 1.0
    for r, ar in _roots(scale_context(model, ctx.q + p_extra)):
        if not ar:
            continue  # a root rounded to the pole of a Cramer-Lundberg psi'
        em = math.expm1(r * length)
        d_phi, d_zeta = _psi_slopes(model, r, s_phi, s_zeta)
        if dp:
            k_phi, k_zeta = _psi_slopes(model, r, s_phi, s_zeta, 1)
            u, h, e = ar * ar, _psi_second_any(model, r) * ar, length * (1.0 + em)
            c_phi += u * (em * (k_phi - h * d_phi) + e * d_phi)
            c_zeta += u * (em * (k_zeta - h * d_zeta) + e * d_zeta)
        else:
            c_phi += ar * d_phi * em
            c_zeta += ar * d_zeta * em
    return (ctx.coeff_a * c_phi, (ctx.w0 - ctx.coeff_a) * c_zeta, _shifted,
            (_script_w_dp if dp else script_w, ctx, p_extra, length))


def _shifted(y: float, fn, ctx: ScaleContext, p_extra: float, length: float) -> float:
    # script_w or its p_extra-derivative, fn, from y to y + length
    return fn(ctx, p_extra, y, y + length)


def _w_tilde_sum(ctx: ScaleContext, p: float, lam: float, a: float) -> tuple:
    # the three-barrier composite lam W_{q+lam}(a) scriptW^{(q,p)}(xi, xi + a)
    # - p W_{q+p}(a) scriptW^{(q,lam)}(xi, xi + a) as a function of xi
    m = ctx.model
    return _lin(lam * w(scale_context(m, ctx.q + lam), a), _script_w_sum(ctx, p, a),
                -p * w(scale_context(m, ctx.q + p), a), _script_w_sum(ctx, lam, a))


def _w_dq(ctx: ScaleContext, x: float) -> float:
    # derivative of W_q(x) in q
    if x < 0.0:
        return 0.0
    model = ctx.model
    return sum(ar * ar * (x - _psi_second_any(model, r) * ar) * math.exp(r * x)
               for r, ar in _roots(ctx))


def w_tilde(model: LevyModel, q: float, p: float, lam: float, x: float, a: float) -> float:
    """Composite scale function for the three-barrier identity,
    lam scriptW_x^{(q,p)}(x+a) W_{q+lam}(a) - p scriptW_x^{(q,lam)}(x+a) W_{p+q}(a),
    whose inner convolutions start at the evaluation point x itself."""
    if a < 0.0:
        raise DomainError("w_tilde requires a >= 0")
    if p <= 0.0 or lam <= 0.0:
        raise DomainError("w_tilde requires p > 0 and lam > 0")
    ctx = scale_context(model, q)
    return _at(ctx, _w_tilde_sum(ctx, p, lam, a), x)
