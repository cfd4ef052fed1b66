"""Scale functions of the two risk models.

For both models and every killing rate q >= 0, 1/psi_q is a rational function whose
numerator quadratic has one nonnegative root Phi_q and one nonpositive root -zeta_q
(both in closed form, without cancellation: :func:`levyruin.models._phi_zeta`), so
the q-scale function is a two-exponential

    W_q(x) = A e^{Phi_q x} + B e^{-zeta_q x},   x >= 0,

with A = 1/psi'(Phi_q) and B = 1/psi'(-zeta_q) obtained by partial fractions of
1/psi_q.  Writing rho(theta) = psi_q(theta) / ((theta - Phi_q)(theta + zeta_q))
(= sigma^2/2 for Brownian, c/(theta+alpha) for Cramer-Lundberg), the companion
scale function has the closed form

    Z_q(x, theta) = rho(theta) [A (theta + zeta_q) e^{Phi_q x} + B (theta - Phi_q) e^{-zeta_q x}],

which is the definition e^{theta x}(1 - psi_q(theta) int_0^x e^{-theta y} W_q(y) dy)
with the integral evaluated in closed form.  This representation is regular at
theta = Phi_q (where it reduces to e^{Phi_q x}) and stays bounded for large theta,
which the large-surrogate limit checks rely on.

The second-generation scale function convolves two such two-exponentials, so it
is a four-term exponential sum, and its derivative in the extra rate follows from
dr/dq = 1/psi'(r) and d(1/psi'(r))/dq = -psi''(r)/psi'(r)^3 at each root r of
psi(r) = q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .models import BROWNIAN, LevyModel, _phi_zeta, _psi_any, _psi_prime_any, _psi_second_any
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


def _rho(ctx: ScaleContext, theta: float) -> float:
    if ctx.model.kind == BROWNIAN:
        return 0.5 * ctx.model.sigma ** 2
    return ctx.model.c / (theta + ctx.model.alpha)


def _rho_prime(ctx: ScaleContext, theta: float) -> float:
    if ctx.model.kind == BROWNIAN:
        return 0.0
    return -ctx.model.c / (theta + ctx.model.alpha) ** 2


def _rho_second(ctx: ScaleContext, theta: float) -> float:
    if ctx.model.kind == BROWNIAN:
        return 0.0
    return 2.0 * ctx.model.c / (theta + ctx.model.alpha) ** 3


def w(ctx: ScaleContext, x: float) -> float:
    """q-scale function W_q(x); identically 0 for x < 0.

    Evaluated as A e^{Phi x} (1 - e^{-(Phi + zeta) x}) + W_q(0) e^{-zeta x}, so
    W_q(0) is exact (0 on Brownian models, where A + B rounds to +-1e-17).
    """
    if x < 0.0:
        return 0.0
    return (-ctx.coeff_a * math.exp(ctx.phi_q * x) * math.expm1(-(ctx.phi_q + ctx.zeta_q) * x)
            + ctx.w0 * math.exp(-ctx.zeta_q * x))


def w_prime(ctx: ScaleContext, x: float) -> float:
    """Derivative of W_q on (0, inf); W_q may be non-differentiable at 0."""
    if x <= 0.0:
        raise DomainError("w_prime requires x > 0")
    return (
        ctx.coeff_a * ctx.phi_q * math.exp(ctx.phi_q * x)
        - ctx.coeff_b * ctx.zeta_q * math.exp(-ctx.zeta_q * x)
    )


def z(ctx: ScaleContext, x: float, theta: float) -> float:
    """Companion scale function Z_q(x, theta); equals e^{theta x} for x < 0."""
    theta = float(theta)
    if not math.isfinite(theta) or theta < 0.0:
        raise DomainError("z requires theta >= 0")
    if x < 0.0:
        return math.exp(theta * x)
    e1 = ctx.coeff_a * (theta + ctx.zeta_q) * math.exp(ctx.phi_q * x) + ctx.coeff_b * (
        theta - ctx.phi_q
    ) * math.exp(-ctx.zeta_q * x)
    return _rho(ctx, theta) * e1


def _z_dtheta(ctx: ScaleContext, x: float, theta: float) -> float:
    # derivative of Z_q in its second argument, no positivity contract
    if x < 0.0:
        return x * math.exp(theta * x)
    ea = math.exp(ctx.phi_q * x)
    eb = math.exp(-ctx.zeta_q * x)
    e1 = ctx.coeff_a * (theta + ctx.zeta_q) * ea + ctx.coeff_b * (theta - ctx.phi_q) * eb
    e2 = ctx.coeff_a * ea + ctx.coeff_b * eb
    return _rho_prime(ctx, theta) * e1 + _rho(ctx, theta) * e2


def _z_d2theta(ctx: ScaleContext, x: float, theta: float) -> float:
    if x < 0.0:
        return x * x * math.exp(theta * x)
    ea = math.exp(ctx.phi_q * x)
    eb = math.exp(-ctx.zeta_q * x)
    e1 = ctx.coeff_a * (theta + ctx.zeta_q) * ea + ctx.coeff_b * (theta - ctx.phi_q) * eb
    e2 = ctx.coeff_a * ea + ctx.coeff_b * eb
    return _rho_second(ctx, theta) * e1 + 2.0 * _rho_prime(ctx, theta) * e2


def z_tilde(ctx: ScaleContext, x: float, alpha: float, beta: float) -> float:
    """Divided-difference combination of Z_q at two exponents (symmetric in them).

    (psi_q(a) Z_q(x,b) - psi_q(b) Z_q(x,a)) / (a - b) away from the confluence;
    psi_q'(a) Z_q(x,a) - psi_q(a) dZ_q/dtheta(x,a) when |a - b| <= 1e-8 (1 + a).
    """
    a, b = float(alpha), float(beta)
    if a < 0.0 or b < 0.0:
        raise DomainError("z_tilde requires alpha, beta >= 0")
    if a > b:
        a, b = b, a
    if b - a <= 1e-8 * (1.0 + a):
        m = 0.5 * (a + b)
        psi_qm = _psi_any(ctx.model, m) - ctx.q
        return _psi_prime_any(ctx.model, m) * z(ctx, x, m) - psi_qm * _z_dtheta(ctx, x, m)
    psi_qa = _psi_any(ctx.model, a) - ctx.q
    psi_qb = _psi_any(ctx.model, b) - ctx.q
    return (psi_qa * z(ctx, x, b) - psi_qb * z(ctx, x, a)) / (a - b)


def _roots(ctx: ScaleContext) -> tuple:
    # (root r, residue 1/psi'(r)) pairs of 1/psi_q: W_q(x) = sum of residue * e^{r x}
    return (ctx.phi_q, ctx.coeff_a), (-ctx.zeta_q, ctx.coeff_b)


def _exp_integrals(r: float, s: float, length: float) -> tuple:
    # int_0^L e^{r(L-u) + s u} du and int_0^L (L-u) e^{r(L-u) + s u} du; near s = r
    # by the series e^{rL} L^k sum_n t^n/(n+k)!, t = (s-r)L, without cancellation
    d = s - r
    t = d * length
    er = math.exp(r * length)
    if abs(t) < 0.5:
        s2, term = 0.0, 0.5
        for n in range(18):
            s2 += term
            term *= t / (n + 3)
        return er * length * (1.0 + t * s2), er * length * length * s2
    es = math.exp(s * length)
    return (es - er) / d, (es - er * (1.0 + t)) / (d * d)


def _convolution(ctx: ScaleContext, q2: float, a: float, x: float, dq: bool) -> float:
    # int_a^x W_{q2}(x - y) W_q(y) dy for 0 <= a < x, or with dq its derivative in q2
    model = ctx.model
    total = 0.0
    for s, bs in _roots(ctx):
        ws = bs * math.exp(s * a)
        for r, ar in _roots(scale_context(model, q2)):
            k1, k2 = _exp_integrals(r, s, x - a)
            if dq:
                total += ws * ar * ar * (k2 - _psi_second_any(model, r) * ar * k1)
            else:
                total += ws * ar * k1
    return total


def script_w(ctx: ScaleContext, p_extra: float, a: float, x: float) -> float:
    """Second-generation scale function: W_q corrected by a convolution from ``a``.

        W_q(x) + p_extra * int_a^x W_{q+p_extra}(x - y) W_q(y) dy

    evaluated in closed form as a four-term exponential sum.  Reduces to W_q(x)
    for x <= a or p_extra = 0.  Since W_q vanishes on the negative axis, a < 0 is
    equivalent to a = 0, where the sum is W_{q+p_extra}(x).
    """
    p_extra = float(p_extra)
    q2 = ctx.q + p_extra
    if q2 < 0.0:
        raise DomainError("script_w requires q + p_extra >= 0")
    a = max(a, 0.0)
    if p_extra == 0.0 or x <= a:
        return w(ctx, x)
    return w(ctx, x) + p_extra * _convolution(ctx, q2, a, x, False)


def _script_w_dp(ctx: ScaleContext, p_extra: float, a: float, x: float) -> float:
    # derivative of script_w(ctx, p_extra, a, x) in p_extra
    a = max(a, 0.0)
    if x <= a:
        return 0.0
    q2 = ctx.q + float(p_extra)
    return _convolution(ctx, q2, a, x, False) + p_extra * _convolution(ctx, q2, a, x, True)


def _w_dq(ctx: ScaleContext, x: float) -> float:
    # derivative of W_q(x) in q
    if x < 0.0:
        return 0.0
    model = ctx.model
    return sum(
        ar * ar * (x - _psi_second_any(model, r) * ar) * math.exp(r * x) for r, ar in _roots(ctx)
    )


def w_tilde(model: LevyModel, q: float, p: float, lam: float, x: float, a: float) -> float:
    """Composite scale function for the three-barrier identity:

        lam * scriptW_x^{(q,p)}(x+a) W_{q+lam}(a)  -  p * scriptW_x^{(q,lam)}(x+a) W_{p+q}(a)

    where the inner convolutions start at the evaluation point x itself.
    """
    if a < 0.0:
        raise DomainError("w_tilde requires a >= 0")
    if p <= 0.0 or lam <= 0.0:
        raise DomainError("w_tilde requires p > 0 and lam > 0")
    ctx_q = scale_context(model, q)
    ctx_ql = scale_context(model, q + lam)
    ctx_qp = scale_context(model, q + p)
    return lam * script_w(ctx_q, p, x, x + a) * w(ctx_ql, a) - p * script_w(
        ctx_q, lam, x, x + a
    ) * w(ctx_qp, a)
