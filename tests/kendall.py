"""Kendall-identity oracle for the infinite-horizon occupation law.

The paper builds the density of O_{inf, lam} from two kernels on Kendall's identity,

    Gamma_lam(r)  = int_0^inf e^{Phi_lam z} (z/r) P(X_r in dz)
    Lambda'(x, r) = int W'(x+z) (z/r) P(X_r in dz)   over z > max(0, -x),

and a convolution of them.  The library evaluates the law in closed form instead;
this module keeps the paper's construction as an independent check of it.

Gamma_lam(r) grows like psi'(Phi_lam) e^{lam r} (its Laplace transform
1/(Phi_p - Phi_lam) has a pole at p = lam), so the density is evaluated through the
compensated kernel

    G(r) = Gamma_lam(r) - psi'(Phi_lam) e^{lam r} = (1/r) E[X_r^- e^{Phi_lam X_r}] >= 0

combined with the Laplace identity
int_0^inf e^{-lam s} Lambda'(x, s) ds = (Phi_lam/lam) Z(x, Phi_lam) - W(x).

Every kernel is a partial first moment of X_r under an exponential tilt, in
closed form and vectorized over r:

* Brownian: the tilted law is Gaussian (erfcx, log_ndtr).
* Cramer-Lundberg: the tilted law is again compound Poisson with exponential
  claims, and each moment reduces to the upper tail of the difference of two
  independent Poisson counts (Skellam), with the exponential prefactors folded
  into the exponent.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chndtr, erfcx, ive, log_ndtr

from levyruin.errors import DomainError, NumericalError
from levyruin.models import BROWNIAN, LevyModel, _psi_prime_any, phi
from levyruin.occupation import _transform_decay_rate
from levyruin.quadrature import gl_adaptive, gl_fixed
from levyruin.scale import ScaleContext, _roots, scale_context

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_CONV_TOL = 1e-7  # adaptive tolerance of the density convolution


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
    z_ = 2.0 * np.sqrt(a * b)
    rho = np.sqrt(a / b)
    if not rho.all():
        raise NumericalError("Skellam tail: the Poisson means differ beyond the float range")
    z_max, rho_max = float(z_.max()), float(rho.max())
    orders = np.arange(1.0, int(min(40.0 / -math.log(rho_max), z_max + 60.0)) + 3)
    log_h = np.log(z_max / (orders - 0.5 + np.sqrt((orders - 0.5) ** 2 + z_max * z_max)))
    log_bound = np.log(orders) + (orders - 1.0) * math.log(rho_max) + np.cumsum(log_h) - log_h[0]
    below = log_bound < -40.0
    n = int(orders[np.argmax(below)]) if below.any() else len(orders)
    i_n = ive(n, z_)
    g = rho * np.divide(ive(n + 1, z_), i_n, out=np.zeros_like(z_), where=i_n > 0.0)
    rho_z, z_rho = rho * z_, z_ / rho
    p = np.zeros_like(z_)
    e = np.zeros_like(z_)
    for d in range(n, 0, -1):
        g = rho_z / (2.0 * d + z_rho * g)  # g = rho h_d
        # Horner forms of sum_d prod_{i<=d} rho h_i and sum_d d prod_{i<=d} rho h_i
        p = g * (1.0 + p)
        e = g * (d + e)
    i_0 = ive(0, z_)
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


def _gamma_comp(model: LevyModel, phi_lam: float, r) -> np.ndarray:
    # G(r) = (1/r) E[X_r^- e^{Phi_lam X_r}] = Gamma_lam(r) - psi'(Phi_lam) e^{lam r},
    # vectorized over r, with e^{lam r} cancelled against the tilted tail
    r = np.asarray(r, dtype=float)
    if model.kind == BROWNIAN:
        sig = model.sigma
        d = -_psi_prime_any(model, phi_lam) * np.sqrt(r) / sig
        bracket = 1.0 / _SQRT_2PI + 0.5 * d * erfcx(-d / math.sqrt(2.0))
        return np.exp(-r * _transform_decay_rate(model)) * (sig / np.sqrt(r)) * bracket
    # under the tilt X_r^- = (S_r - c r)^+ and E[(S_r - c r)^+] = E[(K - N)^+] / beta
    # with K ~ Poisson(u) tilted claims and N ~ Poisson(beta c r).  The Skellam scale
    # -(sqrt(beta c r) - sqrt(u))^2 plus lam r = psi(Phi_lam) r folds, with
    # u beta c r = alpha eta c r^2, to -r (sqrt(c alpha) - sqrt(eta))^2: no term of size lam r
    beta = model.alpha + phi_lam
    u = model.eta * model.alpha * r / beta
    _, _, excess = _skellam_tail(u, beta * model.c * r)
    return np.exp(-r * _transform_decay_rate(model)) * excess / (beta * r)


def _lambda_prime(model: LevyModel, ctx0: ScaleContext, x: float, r: np.ndarray) -> np.ndarray:
    # W'(y) = A Phi_0 e^{Phi_0 y} - B zeta_0 e^{-zeta_0 y}; both exponents are roots of
    # psi, so each term is a tilted partial moment with e^{r psi} = 1
    a = max(0.0, -x)
    total = np.zeros_like(r)
    for theta, res, _ in _roots(ctx0):
        if res * theta != 0.0:
            total += res * theta * _partial_moment(model, theta, theta * x, a, r)
    return total / r


def lambda_prime(model: LevyModel, x: float, r: float) -> float:
    """Kernel Lambda'(x, r) = int W'(x+z) (z/r) P(X_r in dz) over z > max(0, -x)."""
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"lambda_prime requires finite r > 0, got {r!r}")
    r_arr = np.array([r], dtype=float)
    return float(_lambda_prime(model, scale_context(model, 0.0), x, r_arr)[0])


def _jump_kernel(model: LevyModel, d: float, s: np.ndarray) -> np.ndarray:
    # W(0) (d/s) P(X_s in dd)/dd: the part of Lambda'(-d, s) from the jump W(0) = 1/c of
    # a Cramer-Lundberg W at 0, on the absolutely continuous part of X_s (Kendall's
    # identity: the first-passage density of tau_0^+ from -d, times W(0))
    w = model.c * s - d
    out = np.zeros_like(s)
    pos = w > 0.0
    a, b = model.eta * s[pos], model.alpha * w[pos]
    zz = 2.0 * np.sqrt(a * b)
    out[pos] = (d / (model.c * s[pos]) * model.alpha * np.sqrt(a / b)
                * np.exp(-(np.sqrt(a) - np.sqrt(b)) ** 2) * ive(1, zz))
    return out


def kendall_density(model: LevyModel, x: float, lam: float, r: float) -> float:
    """Density of O_{inf, lam} at r > 0 from x, as the paper's Kendall convolution.

    mean Phi_lam [conv + (psi'(Phi_lam) + G(r) e^{-lam r}) T~(r)], where
    conv = int_0^r (e^{-lam s} G(r) - G(r-s)) Lambda'(x, s) ds and
    T~(r) = int_0^inf e^{-lam v} Lambda'(x, r+v) dv.  About 1e-6 relative.

    From x = -d < 0 on a Cramer-Lundberg model, W' carries W(0) = 1/c times a Dirac
    mass at 0, so Lambda'(x, .) gains W(0) times the law of tau_0^+ from x: the
    density of :func:`_jump_kernel` and the mass e^{-eta d/c}/c at s = d/c, where
    Lambda' also jumps.  Both integrals are split there.
    """
    ctx0 = scale_context(model, 0.0)
    ph = phi(model, lam)
    g_r = float(_gamma_comp(model, ph, r))
    jump = model.kind != BROWNIAN and x < 0.0
    hit = -x / model.c if jump else 0.0

    def lp(s):
        out = _lambda_prime(model, ctx0, x, s)
        return out + _jump_kernel(model, -x, s) if jump else out

    # the sin^2 substitution absorbs the 1/sqrt endpoints of both factors
    def conv_f(w_arr):
        sn = np.sin(w_arr)
        cs = np.cos(w_arr)
        s = r * sn * sn
        gc = _gamma_comp(model, ph, r * cs * cs)
        return (np.exp(-lam * s) * g_r - gc) * lp(s) * (2.0 * r * sn * cs)

    edges = [0.0, 0.5 * math.pi]
    if 0.0 < hit < r:
        edges.insert(1, math.asin(math.sqrt(hit / r)))
    conv = sum(gl_adaptive(conv_f, lo, hi, tol_abs=_CONV_TOL, tol_rel=_CONV_TOL, n0=48,
                           nmax=384) for lo, hi in zip(edges, edges[1:]))

    # v = -ln(1-t)/lam
    def tail_f(t_arr):
        v = -np.log1p(-t_arr) / lam
        return lp(r + v) / lam

    edges = [0.0, 1.0]
    if hit > r:
        edges.insert(1, -math.expm1(-lam * (hit - r)))
    tail = sum(gl_fixed(tail_f, lo, hi, 96) for lo, hi in zip(edges, edges[1:]))
    if jump:
        mass = math.exp(-model.eta * hit) / model.c
        if hit < r:
            conv += (math.exp(-lam * hit) * g_r - float(_gamma_comp(model, ph, r - hit))) * mass
        else:
            tail += math.exp(-lam * (hit - r)) * mass
    psip = _psi_prime_any(model, ph)
    return model.mean() * ph * (conv + (psip + g_r * math.exp(-lam * r)) * tail)
