"""Parisian ruin with exponential-sum, Erlang(2) and Erlang(n) implementation delays.

Every identity is closed-form in the two-mode scale quantities of
:mod:`levyruin.scale`: ratios and two-sided combinations factor out e^{Phi_q b},
and bounded quantities and ruin probabilities keep their decaying mode.
The Exp(p) + Exp(lam) identities are difference quotients, with removable points at
p = lam and p = q + lam in the rate, and at theta = Phi_{q+lam} in theta.  Each is
evaluated as a divided difference of root-mode terms (:func:`levyruin.scale._mode_dd`,
and in theta :func:`levyruin.scale._dd_exp`), which is its derivative at the removable
point itself: one formula, with no tolerance band and no separate confluent branch.
So the Erlang(2, lam) identities are their parents at p = lam.  Erlang(n) ruin and
its deficit transforms are closed-form for every n: a recursion over the delay's
stages in which every term has one sign, so no Monte Carlo enters and nothing
cancels, in O(n^2) operations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NumericalError
from .models import (LevyModel, _phi_zeta, _psi_any, _psi_prime_any, _psi_second_any,
                     _psi_slopes, phi)
from .occupation import _occupation_inf, joint_lt_upcross
from .scale import (_across, _at, _dd_exp, _decay, _lin, _mode_dd, _neg, _pairs, _ratio, _roots,
                    _script_w_sum, _shifted, _two_sided, _w_at, _w_tilde_sum, _z_neg, _z_sum,
                    _z_terms, _z_tilde_sum, rate_part, scale_context)
from .util import clamp_unit, represented_rate, require_finite

_POLE_TOL = 1e-12
_TINY = 1e-200  # the Erlang(n) scale sc is folded into the coefficients below this
_MAX_TERMS = 4096  # the longest series for Erlang(n) ruin from x < 0
_ONE = (1.0, 0.0, lambda y: 1.0, ())  # at q = 0, where Phi_0 = 0: the mode e^{Phi_0 x}


def _psi_q(model: LevyModel, q: float, theta: float) -> float:
    return _psi_any(model, theta) - q


def _check_pole(theta: float, pole: float) -> None:
    # from x < 0 theta = Phi_{q+p} needs a third divided difference, which is not taken
    if abs(theta - pole) <= _POLE_TOL * (1.0 + abs(pole)):
        raise DomainError(f"theta = {theta:g} hits the removable point Phi_{{q+p}} = {pole:g}, "
                          "not covered from x < 0")


def _e_scaled(ctx, lam: float, theta: float, phi_lq: float) -> tuple:
    # E^{(q,lam)}(., theta) / psi_{q+lam}(theta), E = lam Z_q(., theta) - psi_q(theta)
    # Z_q(., Phi_{q+lam}).  As psi_q(Phi_{q+lam}) = lam, E = lam (Z_q(., theta) - Z_q(.,
    # Phi_{q+lam})) - psi_{q+lam}(theta) Z_q(., Phi_{q+lam}), and psi_{q+lam}(theta) =
    # (theta - Phi_{q+lam}) D(theta, Phi_{q+lam}): a divided difference of Z_q in theta,
    # which keeps its digits next to theta = Phi_{q+lam}, where E and psi_{q+lam} vanish
    k = lam / _psi_slopes(ctx.model, theta, phi_lq, phi_lq)[0]
    return _z_terms(ctx, ((k, theta, None, phi_lq, None), (-1.0, phi_lq, None, None, None)))


def ruin_prob_sum_exp(model: LevyModel, x: float, p: float, lam: float) -> float:
    """Probability of Parisian ruin with per-excursion delay Exp(p) + Exp(lam).

    Complement 1 - k Z~_0(x, Phi_lam, Phi_p) of the infinite-horizon occupation
    transform; symmetric in (p, lam).  The Phi_0 = 0 mode of k Z~_0 is exactly 1, so
    for x >= 0 the ruin probability is its decaying part, without cancellation.
    """
    require_finite("ruin_prob_sum_exp", "x p lam", x, p, lam)
    ctx0, f = rate_part(_ruin_sum_exp_modes, model, p, lam)
    return clamp_unit(_decay(ctx0, f, x), "ruin_prob_sum_exp")


def _ruin_sum_exp_modes(model: LevyModel, p: float, lam: float) -> tuple:
    ctx0, k, phl, php = _occupation_inf(model, p, lam)
    return ctx0, _lin(1.0, _ONE, -k, _z_tilde_sum(ctx0, phl, php))


def gs_lt_two_sided(model: LevyModel, x: float, b: float, q: float, p: float,
                    lam: float, theta: float) -> float:
    """E_x[ e^{-q rho + theta X_rho} ; rho < tau_b^+ ] for the Exp(p)+Exp(lam) delay.

    (p / psi_{q+p}(theta)) times the two-sided combination of E / psi_{q+lam}(theta)
    against Z~_q(., Phi_{q+lam}, Phi_{q+p}).  On x >= 0, p / psi_{q+p}(theta) times the
    determinant of the modes is the product p lam psi[theta, Phi_{q+lam}, Phi_{q+p}] /
    ((Phi_q + zeta_q) D(theta, Phi_{q+lam}) D(theta, Phi_{q+p})), psi[., ., .] the
    second divided difference of psi: nothing cancels next to theta = Phi_{q+lam} or
    Phi_{q+p}, where E and both psi vanish.  On x < 0, E / psi_{q+lam}(theta) is a
    divided difference of Z_q in theta, but p / psi_{q+p}(theta) is not, so theta =
    Phi_{q+p} raises ``DomainError`` there.
    """
    require_finite("gs_lt_two_sided", "x b q p lam theta", x, b, q, p, lam, theta)
    if x > b:
        raise DomainError("gs_lt_two_sided requires x <= b")
    below = x < 0.0
    modes = rate_part(_gs_two_sided_modes, model, below, q, p, lam, theta)
    if modes is None:  # huge theta: X_rho < 0, so the value tends to 0
        return 0.0
    if below:
        ctx, k, e, f = modes
        return k * _two_sided(ctx, e, f, x, b)
    ctx, f, curv, gap, k_p, k_l = modes
    det = curv / (gap * _at(ctx, f, b, b))
    return _across(ctx, det, x, b) * k_p * k_l


def _gs_two_sided_modes(model: LevyModel, below: bool, q: float, p: float, lam: float,
                        theta: float) -> tuple | None:
    # None where psi_{q+p}(theta) is inf; from x < 0 (ctx, p / psi_{q+p}(theta), E /
    # psi_{q+lam}(theta), f), from x >= 0 (ctx, f, curv, Phi_q + zeta_q, p / slope_p,
    # lam / slope_l)
    if p <= 0.0 or lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("gs_lt_two_sided requires p > 0, lam > 0, q >= 0, theta >= 0")
    lam, p = represented_rate(q, lam, "gs_lt_two_sided"), represented_rate(q, p, "gs_lt_two_sided")
    psi_p = _psi_q(model, q + p, theta)
    if psi_p == math.inf:
        return None
    ctx = scale_context(model, q)
    phi_lq, phi_pq = phi(model, q + lam), phi(model, q + p)
    f = _z_tilde_sum(ctx, phi_lq, phi_pq)
    if below:
        _check_pole(theta, phi_pq)
        return ctx, p / psi_p, _e_scaled(ctx, lam, theta, phi_lq), f
    slope_l, slope_p = _psi_slopes(model, theta, phi_lq, phi_pq)
    curv = _psi_slopes(model, theta, phi_pq, phi_pq, 1, a2=phi_lq)[0]
    # the rate factors last, one at a time: slope_l slope_p overflows from theta of
    # about 1e154, and p lam from rates of 1e154
    return ctx, f, curv, ctx.phi_q + ctx.zeta_q, p / slope_p, lam / slope_l


def gs_lt_infinite(model: LevyModel, x: float, q: float, p: float, lam: float,
                   theta: float) -> float:
    """E_x[ e^{-q rho + theta X_rho} ; rho < inf ] for the Exp(p)+Exp(lam) delay.

    psi_q(theta)/(theta - Phi_q) is the slope of psi between Phi_q and theta, regular
    at theta = Phi_q (so q = 0, theta = 0 under positive drift).  For x >= 0 the value
    lies in [0, 1], so only the decaying mode is kept, as a factored product of
    slopes that does not cancel next to theta = Phi_{q+lam} or Phi_{q+p}.
    """
    require_finite("gs_lt_infinite", "x q p lam theta", x, q, p, lam, theta)
    below = x < 0.0
    modes = rate_part(_gs_infinite_modes, model, below, q, p, lam, theta)
    if below:
        ctx, k, e, coeff, f = modes
        return k * (_neg(e, x) + coeff * _at(ctx, f, x))
    ctx, f = modes
    return _decay(ctx, f, x)


def _gs_infinite_modes(model: LevyModel, below: bool, q: float, p: float, lam: float,
                       theta: float) -> tuple:
    # from x < 0 (ctx, p / psi_{q+p}(theta), E / psi_{q+lam}(theta), coeff, Z~_q(.,
    # Phi_{q+lam}, Phi_{q+p})), from x >= 0 (ctx, the decaying mode)
    if p <= 0.0 or lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("gs_lt_infinite requires p > 0, lam > 0, q >= 0, theta >= 0")
    if q == 0.0:
        model.require_positive_drift("gs_lt_infinite with q = 0")
    lam, p = represented_rate(q, lam, "gs_lt_infinite"), represented_rate(q, p, "gs_lt_infinite")
    ctx = scale_context(model, q)
    phi_q = ctx.phi_q
    phi_lq, phi_pq = phi(model, q + lam), phi(model, q + p)
    (slope_q, slope_l), (slope_p, _) = (_psi_slopes(model, theta, phi_q, phi_lq),
                                         _psi_slopes(model, theta, phi_pq, phi_pq))
    if below:
        _check_pole(theta, phi_pq)
        # psi_{q+lam}(theta) = (theta - Phi_{q+lam}) slope_l divides both terms
        coeff = slope_q * (phi_pq - phi_q) / (p * slope_l)
        return (ctx, p / _psi_q(model, q + p, theta), _e_scaled(ctx, lam, theta, phi_lq), coeff,
                _z_tilde_sum(ctx, phi_lq, phi_pq))
    # the decaying mode, root r = -zeta_q and residue B: D(th, r) = psi_q(th)/(th - r)
    # turns E and z_tilde into products, and (Phi_{q+lam} - th)/psi_{q+lam}(th) into -1/slope
    _, (r, res, _) = _roots(ctx)
    c = (-res * slope_q * (phi_q - r) / (theta - r) * (p / (phi_pq - r))
         * (lam / (phi_lq - r)) / (slope_l * slope_p))
    return ctx, (0.0, c, None, ())


def up_cross_three_barrier(model: LevyModel, x: float, b: float, a: float, q: float,
                           p: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < rho ^ tau_{-a}^- ] as a ratio of composite
    scale functions, taken mode by mode.

    The composite vanishes identically at p = lam, so the ratio is taken between its
    divided differences in p, which at p = lam are its p-derivatives.  At a = 0 the
    lower barrier is the ruin level and the ratio is W_q(x)/W_q(b) (the composite is
    0/0 on Brownian models, where W(0) = 0).
    """
    require_finite("up_cross_three_barrier", "x b a q p lam", x, b, a, q, p, lam)
    if not (-a <= x <= b):
        raise DomainError("up_cross_three_barrier requires -a <= x <= b")
    ctx, f = rate_part(_three_barrier_modes, model, a, q, p, lam)
    if f is None:
        # e^{Phi_q b} is factored out only where it would overflow, so that the ratio
        # is otherwise the plain W_q(x)/W_q(b)
        s = b if ctx.phi_q * b > 700.0 else 0.0
        return clamp_unit(_w_at(ctx, x, s) / _w_at(ctx, b, s), "up_cross_three_barrier")
    return clamp_unit(_ratio(ctx, f, x, b), "up_cross_three_barrier")


def _three_barrier_modes(model: LevyModel, a: float, q: float, p: float, lam: float) -> tuple:
    # (ctx, the composite's modes), with None for them at a = 0
    if a < 0.0 or p <= 0.0 or lam <= 0.0:
        raise DomainError("up_cross_three_barrier requires a >= 0, p > 0 and lam > 0")
    ctx = scale_context(model, q)
    if a == 0.0:
        return ctx, None
    p = represented_rate(q, p, "up_cross_three_barrier")
    lam = represented_rate(q, lam, "up_cross_three_barrier")
    return ctx, _w_tilde_sum(ctx, p, lam, a)


def up_cross_before_ruin(model: LevyModel, x: float, b: float, q: float, p: float,
                         lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < rho ]: it coincides with
    :func:`levyruin.occupation.joint_lt_upcross`."""
    return joint_lt_upcross(model, x, b, q, p, lam)


def gerber_shiu_density(model: LevyModel, x: float, b: float, q: float, p: float,
                        lam: float, y: float) -> float:
    """Density in y <= 0 of e^{-q rho} 1{X_rho in dy, rho < tau_b^+}; p = lam is the
    Erlang(2, lam) delay.

    p times the two-sided combination, against f = Z~_q(., Phi_{q+lam}, Phi_{q+p}), of
    [h], the divided difference from rate q + lam to q + p of h(rho) = A_rho e^{r_rho L}
    (lam Z_q(., r_rho) - rho Z_q(., Phi_{q+lam})), L = -y, over the decaying roots r_rho =
    -zeta_{q+rho} with residues A_rho; the growing root terms are 0 or multiples of f.
    """
    require_finite("gerber_shiu_density", "x b q p lam y", x, b, q, p, lam, y)
    if y > 0.0:
        raise DomainError("gerber_shiu_density requires y <= 0")
    if x > b:
        raise DomainError("gerber_shiu_density requires x <= b")
    ctx, p, g, f = rate_part(_gs_density_modes, model, q, p, lam, y)
    return p * _two_sided(ctx, g, f, x, b)


def _gs_density_modes(model: LevyModel, q: float, p: float, lam: float, y: float) -> tuple:
    # (ctx, p, [h] with the multiple of f its modes drop, f)
    if p <= 0.0 or lam <= 0.0 or q < 0.0:
        raise DomainError("gerber_shiu_density requires delay rates > 0 and q >= 0")
    # the rates as the roots see them, through q + lam and q + p
    lam, p = (represented_rate(q, rate, "gerber_shiu_density") for rate in (lam, p))
    ctx, length = scale_context(model, q), -y
    pf, pr = _pairs(scale_context(model, q + lam), scale_context(model, q + p))
    phi_l, a_fl, t_l, phi_p, a_fp, _, s_f = pf[:7]
    r_l, a_l, u_l, r_p, a_p, u_p, s_r, da = pr
    keep = ctx.w0 != 0.0
    if keep and abs(da) < sys.float_info.min:  # [A] ~ rate^-3 next to the pole
        raise NumericalError(f"gerber_shiu_density: at q + lam = {q + lam:g}, q + p = {q + p:g} "
                             f"the roots -zeta lie within {max(u_l, u_p):.3g} of the pole")
    e_l, e_p = math.exp(r_l * length), math.exp(r_p * length)
    la_de = lam * a_l * _dd_exp(r_l, r_p, length) / s_r
    # [h] = [e^{r L}] A_lam K_lam + e^{r_p L} [A K], and [A K] by the product rule with the
    # smaller residue times [K], so that no two large terms cancel next to the pole.  On
    # Brownian models e^{r_p L} [A K] is e^{r_p L} A_{Phi_{q+p}} / s_f f on x >= 0 and is
    # dropped there: the zero at y = 0 stays exact
    big = abs(a_l) >= abs(a_p)
    r_b, u_b, a_s, rate_b = (r_l, u_l, a_p, lam) if big else (r_p, u_p, a_l, p)
    terms = ((la_de, r_l, u_l, None, None), (-la_de, phi_l, t_l, None, None))
    if keep:
        terms += ((-e_p * (a_s + rate_b * da), phi_l, t_l, None, None),
                  (e_p * lam * da, r_b, u_b, None, None),
                  (e_p * lam * a_s / s_r, r_l, u_l, r_p, u_p))
    k_drop = 0.0 if keep else -a_fp * e_p / s_f
    k_zeta = -a_p * e_p / s_f if keep else 0.0
    f = _z_tilde_sum(ctx, phi_l, phi_p)
    g = _z_terms(ctx, terms)[:2] + (_gs_neg, (length, pf, pr, lam, (
        a_s * (e_p if big else e_l), rate_b, ctx.w0), k_drop, k_zeta, f))
    return ctx, p, g, f


def _gs_neg(y: float, length: float, pf: tuple, pr: tuple, lam: float, small: tuple,
            k_drop: float, k_zeta: float, f: tuple) -> float:
    # [h] at y < 0, plus the multiple of f that the modes drop: on [-L, 0),
    # lam [A e^{r (L + y)}] - [rho A e^{r L}] e^{Phi_{q+lam} y}; below -L, where scriptW
    # vanishes, -lam [W(L) e^{Phi y}], W(L) = A_Phi e^{Phi L} + A_r expm1(r L) + W(0) - A_Phi
    # (exactly W(0) at L = 0)
    u_s, rate_b, w0 = small
    if y >= -length:
        return (lam * _mode_dd(pr, length + y)
                - (u_s + rate_b * _mode_dd(pr, length)) * math.exp(pf[0] * y) + k_drop * _neg(f, y))
    w_ly = (pr[1] * math.expm1(pr[0] * length) + w0) * _dd_exp(pf[0], pf[3], y) / pf[6]
    return (-lam * (_mode_dd(pf, length + y) - _mode_dd(pf, y)
                    + (_mode_dd(pr, length) - pr[7]) * math.exp(pf[3] * y) + w_ly)
            + k_zeta * _neg(f, y))


def lt_occupation_exp_horizon(model: LevyModel, x: float, p: float, q: float,
                              lam: float) -> float:
    """E_x[ e^{-p O_{e_q, lam}} ]: occupation up to an independent Exp(q) horizon.

    Valid for any drift (the exponential horizon keeps everything finite).  The
    value is 1 minus a scale combination that is bounded in x, so for x >= 0 only
    the combination's decaying mode is kept.
    """
    require_finite("lt_occupation_exp_horizon", "x p q lam", x, p, q, lam)
    modes = rate_part(_exp_horizon_modes, model, p, q, lam)
    if modes is None:
        return 1.0
    ctx, combined, scale = modes
    return clamp_unit(1.0 - _decay(ctx, combined, x) / scale, "lt_occupation_exp_horizon")


def _exp_horizon_modes(model: LevyModel, p: float, q: float, lam: float) -> tuple | None:
    # (ctx, the combination, (lam + q) (p + q)); None at p = 0, where the value is 1
    if q <= 0.0:
        raise DomainError("lt_occupation_exp_horizon requires q > 0")
    if lam <= 0.0 or p < 0.0:
        raise DomainError("lt_occupation_exp_horizon requires lam > 0 and p >= 0")
    if p == 0.0:
        return None
    lam = represented_rate(q, lam, "lt_occupation_exp_horizon")
    p = represented_rate(q, p, "lt_occupation_exp_horizon")
    ctx = scale_context(model, q)
    phi_q = ctx.phi_q
    phi_lq, phi_pq = phi(model, q + lam), phi(model, q + p)
    # q phi_lq (phi_pq - phi_q) / phi_q, with q / phi_q and p / (phi_pq - phi_q) as slopes
    slope_0, slope_p = _psi_slopes(model, phi_q, 0.0, phi_pq)
    k = phi_lq * p * slope_0 / slope_p
    e0 = _z_terms(ctx, ((lam, 0.0, None, None, None), (q, phi_lq, None, None, None)))
    return ctx, _lin(p, e0, -k, _z_tilde_sum(ctx, phi_lq, phi_pq)), (lam + q) * (p + q)


def ruin_prob_erlang2(model: LevyModel, x: float, lam: float) -> float:
    """Probability of Parisian ruin with an Erlang(2, lam) delay per excursion:
    :func:`ruin_prob_sum_exp` at p = lam."""
    return ruin_prob_sum_exp(model, x, lam, lam)


# ---------------------------------------------------------------------------
# Erlang(2) fluctuation identities
# ---------------------------------------------------------------------------


def up_cross_e2(model: LevyModel, x: float, b: float, q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < rho^{(2)} ] (Erlang(2, lam) delay):
    :func:`levyruin.occupation.joint_lt_upcross` at p = lam."""
    return joint_lt_upcross(model, x, b, q, lam, lam)


def gs_lt_two_sided_e2(model: LevyModel, x: float, b: float, q: float, lam: float,
                       theta: float) -> float:
    """E_x[ e^{-q rho^{(2)} + theta X} ; rho^{(2)} < tau_b^+ ]: :func:`gs_lt_two_sided`
    at p = lam."""
    return gs_lt_two_sided(model, x, b, q, lam, lam, theta)


def gs_lt_infinite_e2(model: LevyModel, x: float, q: float, lam: float,
                      theta: float) -> float:
    """E_x[ e^{-q rho^{(2)} + theta X} ; rho^{(2)} < inf ]: :func:`gs_lt_infinite`
    at p = lam."""
    return gs_lt_infinite(model, x, q, lam, lam, theta)


def gs_density_e2(model: LevyModel, x: float, b: float, q: float, lam: float,
                  y: float) -> float:
    """Gerber-Shiu density at Erlang(2, lam) Parisian ruin: :func:`gerber_shiu_density`
    at p = lam."""
    return gerber_shiu_density(model, x, b, q, lam, lam, y)


# ---------------------------------------------------------------------------
# Erlang(n) recursion and the fixed-delay approximation
# ---------------------------------------------------------------------------
#
# With N_k(theta; x) = E_x[e^{theta X}; rho^{(k)} < inf] at the first time rho^{(k)}
# an excursion below 0 holds k clock points, ruin is N_k at theta = 0 and the deficit
# transform T_k is N_k at theta = Phi = Phi_lam.  From X_{rho^{(k-1)}} < 0 the next
# point comes before tau_0^+, or the process climbs to 0 and starts afresh, so
# N_k = L N_{k-1} + T_{k-1} N_k(.; 0), L f = lam (f - f(Phi)) / (lam - psi) (Albrecher,
# Ivanovs & Zhou, 2016).  In t = (Phi - theta) / gap, gap = Phi + zeta_lam,
# L f = g (f - f(Phi)) / t (1 - (1 - delta) t) / (1 - t) with g = lam / (gap psi'(Phi))
# and delta = gap psi''(Phi) / (2 psi'(Phi)) in (0, 1]: L maps series in t, and
# polynomials in v = 1 / (1 - t), with coefficients >= 0 to such, so every sum below
# has terms >= 0 and none cancels.


def _erlang_rates(model: LevyModel, lam: float) -> tuple:
    # (lam, Phi, zeta_lam, g, delta) of the recursion at rate lam
    if not 0.0 < lam < math.inf:
        raise DomainError("the Erlang(n, lam) recursion requires 0 < lam < inf")
    ph, zeta = _phi_zeta(model, lam)
    gap, dpsi = ph + zeta, _psi_prime_any(model, ph)
    return lam, ph, zeta, lam / gap / dpsi, gap * _psi_second_any(model, ph) / (2.0 * dpsi)


def _erlang_core(model: LevyModel, lam: float, n: int, ctx0=None) -> tuple:
    # (rates, (ruin, T_n) from x = 0, zeta_0): all that x >= 0 reads but e^{-zeta_0 x};
    # ctx0, Z_0's context, where the caller has checked the drift
    if ctx0 is None:
        model.require_positive_drift("the Erlang(n) recursion")
        ctx0 = scale_context(model, 0.0)
    rates = _erlang_rates(model, lam)
    return rates, _erlang_origin(model, ctx0, rates, n), ctx0.zeta_q


def _erlang_origin(model: LevyModel, ctx0, rates: tuple, n: int) -> tuple:
    # (ruin, T_n) from x = 0.  N_k(.; 0) is a polynomial in v without constant term, so
    # T_k(0) is its value at v = 1 and ruin its value at theta = 0, v = 1 / w,
    # w = zeta_lam / gap; its coefficients are carried times w^{-i}, as sc times coef,
    # highest power first.  N_1(.; 0) = T_1(0) v, with ruin the decaying mode of
    # 1 - E[X_1] (Phi / lam) Z_0(., Phi).  A stage is one pass from the top: the suffix
    # sums s_i = sum_{j >= i} coef_j w^{j - i} give the new coefficients
    # (1 - delta) s_{i+1} + (delta / w) s_i, and sc takes the factor g / (1 - w sc s_0)
    lam, ph, zeta, g, delta = rates
    w = zeta / (ph + zeta)
    hold, up = 1.0 - delta, delta / w
    sc, coef = -model.mean() * (ph / lam) * _z_sum(ctx0, ph)[1], [1.0]
    for _ in range(n - 1):
        out, s = [], 0.0
        for c in coef:
            t = c + w * s
            out.append(hold * s + up * t)
            s = t
        out.append(hold * s)
        sc *= g / (1.0 - w * sc * s)
        coef = out
        if sc < _TINY:  # the sum of coef never falls, so only sc can leave the float range
            coef, sc = [sc * c for c in coef], 1.0
    s = 0.0
    for c in coef:
        s = c + w * s
    return sc * math.fsum(coef), sc * (w * s)


def _erlang_below(rates: tuple, x: float, n: int, size: int) -> tuple:
    # The first `size` coefficients of L^n e^{theta x} in s = t gap / Phi, all >= 0, and
    # p_0 + ... + p_{n-1}, where p_j, the probability of j clock points before tau_0^+
    # from x < 0, is L^j e^{theta x} at s = 0.  At theta = 0, s = 1, L^n e^{theta x} is
    # the probability of n points or more; e^{theta x} has the Poisson(Phi |x|) weights
    _, ph, zeta, g, delta = rates
    tau, b = ph / (ph + zeta), -ph * x
    coef = [math.exp(ph * x)]
    for j in range(1, size + n):
        coef.append(coef[-1] * b / j)
    head, g, delta = 0.0, g / tau, delta * tau
    for _ in range(n):
        head += coef[0]
        run, out = 0.0, []  # run: the shifted coefficients so far, divided by 1 - tau s
        for c in coef[1:]:
            out.append(g * (c + delta * run))
            run = c + tau * run
        coef = out
    return coef, head


def _erlang(core: tuple, x: float, n: int, ruin: bool) -> float:
    # The ruin probability, or the deficit transform T_n.  From x >= 0 the law of the
    # deficit below 0 does not depend on x (the process creeps, or a memoryless claim
    # takes it there): the x = 0 value times e^{-zeta_0 x}.  From x < 0 the process
    # climbs to 0 and starts afresh there: L^n e^{theta x} plus p_0 + ... + p_{n-1}
    # times the x = 0 value.  At theta = 0 L^n e^{theta x} is 1 - head, to some ulp of
    # 1; where that is not within 1e-14 of the value its series is summed instead, to
    # twice as many coefficients until the last is below the rounding of the sum, and
    # past 4096 coefficients (Phi / gap near 1) it is a numerical error.  core: _erlang_core
    rates, origin, zeta0 = core
    at_0 = origin[0 if ruin else 1]
    if x >= 0.0:
        return at_0 * math.exp(-zeta0 * x)
    coef, head = _erlang_below(rates, x, n, 1)
    if not ruin:
        return coef[0] + head * at_0
    value = (1.0 - head) + head * at_0
    # the rounding of 1 - head: against 40-digit arithmetic on 4500 random inputs it
    # stayed below 0.8 of (1 + (n + Phi |x|) sqrt(head) / 4) ulp of 1
    err = (1.0 + 0.25 * (n - rates[1] * x) * math.sqrt(head)) * sys.float_info.epsilon
    if err <= 1e-14 * value:
        return value
    size, tau = 2 * n + 32, rates[1] / (rates[1] + rates[2])
    while True:
        coef = _erlang_below(rates, x, n, size)[0]
        first = math.fsum(coef)
        if coef[-1] <= 1e-17 * first * (1.0 - tau):
            return first + head * at_0
        if size >= _MAX_TERMS:
            raise NumericalError(
                f"Erlang({n}) ruin from x = {x:g} at lam = {rates[0]:g}: the series of the "
                f"clock points before tau_0^+ has not converged in {_MAX_TERMS} terms")
        size = min(2 * size, _MAX_TERMS)


def deficit_transform_t0(model: LevyModel, x: float, lam: float) -> float:
    """E_x[ e^{Phi_lam X_{T_0^-}} ; T_0^- < inf ]: the deficit transform at the first
    Poisson observation below 0, the first stage of the Erlang recursion."""
    require_finite("deficit_transform_t0", "x lam", x, lam)
    return _erlang(rate_part(_erlang_core, model, lam, 1), x, 1, False)


def deficit_transform_erlang2(model: LevyModel, x: float, lam: float) -> float:
    """E_x[ e^{Phi_lam X_{rho^{(2)}}} ; rho^{(2)} < inf ]: its second stage."""
    require_finite("deficit_transform_erlang2", "x lam", x, lam)
    return _erlang(rate_part(_erlang_core, model, lam, 2), x, 2, False)


def ruin_prob_erlang_n(model: LevyModel, x: float, lam: float, n: int) -> float:
    """Probability of Parisian ruin with an Erlang(n, lam) delay per excursion, in
    closed form for every n: O(n^2) operations on sums of nonnegative terms."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("ruin_prob_erlang_n requires integer n >= 1")
    require_finite("ruin_prob_erlang_n", "x lam", x, lam)
    return clamp_unit(_erlang(rate_part(_erlang_core, model, lam, n), x, n, True),
                      "ruin_prob_erlang_n")


@dataclass(frozen=True)
class FixedDelayResult:
    """Erlang(n, n/r) approximation of fixed-delay Parisian ruin, with the
    convergence sequence over n in {1, 2, 4, 8, ...} up to the requested n;
    :func:`fixed_delay_approx` says where its limit is not the fixed-delay law."""

    value: float
    sequence: tuple  # ((n_k, value_k), ...)

    def __float__(self) -> float:
        return self.value


def fixed_delay_approx(model: LevyModel, x: float, r: float, n: int) -> FixedDelayResult:
    """Approximate fixed-delay (kappa_r) Parisian ruin by Erlang(n, n/r) delays.

    The sequence tends to the fixed-delay ruin probability from x >= 0 and from most
    x < 0, at rate 1/n.  It does not on Cramer-Lundberg models from x = -c r: the
    first excursion there lasts at least r, with an atom e^{-eta r} at exactly r.  A
    fixed delay r never ruins an excursion of length exactly r, while the Erlang(n,
    n/r) clock runs out before it about half the time as n grows.  On cl_a (c = eta
    = 1, alpha = 2) from x = -0.5 with r = 0.5 the sequence tends to about 0.789
    (0.78906 at n = 64); the fixed-delay value is 0.582426.
    """
    require_finite("fixed_delay_approx", "x r", x, r)
    seq = tuple((nk, clamp_unit(_erlang(core, x, nk, True), "ruin_prob_erlang_n"))
                for nk, core in rate_part(_fixed_delay_cores, model, r, n))
    return FixedDelayResult(value=seq[-1][1], sequence=seq)


def _fixed_delay_cores(model: LevyModel, r: float, n: int) -> tuple:
    # ((n_k, the Erlang(n_k, n_k/r) core), ...): one key for the whole sequence
    if r <= 0.0:
        raise DomainError("fixed_delay_approx requires r > 0")
    if not isinstance(n, int) or n < 1:
        raise DomainError("fixed_delay_approx requires integer n >= 1")
    ns = [1 << k for k in range(n.bit_length())]
    if ns[-1] != n:
        ns.append(n)
    model.require_positive_drift("the Erlang(n) recursion")
    ctx0 = scale_context(model, 0.0)
    return tuple((nk, _erlang_core(model, nk / r, nk, ctx0)) for nk in ns)


# ---------------------------------------------------------------------------
# Fluctuation identities at the first Poisson observation below 0
# ---------------------------------------------------------------------------


def t0_joint_lt(model: LevyModel, x: float, b: float, q: float, lam: float,
                theta: float) -> float:
    """E_x[ e^{-q T_0^- + theta X_{T_0^-}} ; T_0^- < tau_b^+ ]: lam / (lam - psi_q(theta))
    times the two-sided combination of Z_q(., theta) against f = Z_q(., Phi_{q+lam}), taken
    as -lam / psi[theta, Phi_{q+lam}] times that of the divided difference of Z_q in
    theta to Phi_{q+lam}, as the combination maps f to 0: theta = Phi_{q+lam} is regular."""
    require_finite("t0_joint_lt", "x b q lam theta", x, b, q, lam, theta)
    if x > b:
        raise DomainError("t0_joint_lt requires x <= b")
    ctx, k, g, f = rate_part(_t0_joint_modes, model, q, lam, theta)
    return k * _two_sided(ctx, g, f, x, b)


def _t0_joint_modes(model: LevyModel, q: float, lam: float, theta: float) -> tuple:
    # (ctx, -lam / psi[theta, Phi_{q+lam}], the divided difference of Z_q, f)
    if lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("t0_joint_lt requires lam > 0, q >= 0, theta >= 0")
    lam = represented_rate(q, lam, "t0_joint_lt")
    ctx = scale_context(model, q)
    ph = phi(model, q + lam)
    return (ctx, -lam / _psi_slopes(model, theta, ph, ph)[0], _z_sum(ctx, theta, theta2=ph),
            _z_sum(ctx, ph))


def upcross_before_t0_two_sided(model: LevyModel, x: float, b: float, a: float,
                                q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < T_0^- ^ tau_{-a}^- ]."""
    require_finite("upcross_before_t0_two_sided", "x b a q lam", x, b, a, q, lam)
    if not (-a <= x <= b):
        raise DomainError("upcross_before_t0_two_sided requires -a <= x <= b")
    ctx, f = rate_part(_t0_two_sided_modes, model, a, q, lam)
    return clamp_unit(_ratio(ctx, f, x, b), "upcross_before_t0_two_sided")


def _t0_two_sided_modes(model: LevyModel, a: float, q: float, lam: float) -> tuple:
    # (ctx, scriptW^{(q,lam)}(., . + a))
    if a < 0.0 or lam <= 0.0 or q < 0.0:
        raise DomainError("upcross_before_t0_two_sided requires a >= 0, lam > 0, q >= 0")
    lam = represented_rate(q, lam, "upcross_before_t0_two_sided")
    ctx = scale_context(model, q)
    return ctx, _script_w_sum(ctx, scale_context(model, q + lam), a)


def upcross_before_t0(model: LevyModel, x: float, b: float, q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < T_0^- ]."""
    require_finite("upcross_before_t0", "x b q lam", x, b, q, lam)
    if x > b:
        raise DomainError("upcross_before_t0 requires x <= b")
    ctx, f = rate_part(_t0_upcross_modes, model, q, lam)
    return clamp_unit(_ratio(ctx, f, x, b), "upcross_before_t0")


def _t0_upcross_modes(model: LevyModel, q: float, lam: float) -> tuple:
    # (ctx, Z_q(., Phi_{q+lam}))
    if lam <= 0.0 or q < 0.0:
        raise DomainError("upcross_before_t0 requires lam > 0 and q >= 0")
    lam = represented_rate(q, lam, "upcross_before_t0")
    ctx = scale_context(model, q)
    return ctx, _z_sum(ctx, phi(model, q + lam))


def delayed_w_functional(model: LevyModel, x: float, b: float, a: float, q: float,
                         lam: float, p: float, z: float) -> float:
    """E_x[ e^{-q T_0^-} W_p(X_{T_0^-} + z) ; T_0^- < tau_b^+ ^ tau_{-a}^- ]: -lam times the
    two-sided combination, against scriptW^{(q,lam)}(., . + a), of the divided difference
    of scriptW^{(q, rho - q)}(., . + z) in the total rate rho from p to q + lam, which is
    regular at p = q + lam.  z > a is rejected: there the formula disagrees with its Monte
    Carlo counterpart ``T0_w_weight`` and can go negative.  A value too large for a float
    (W_p at a huge p) raises ``OverflowError``."""
    require_finite("delayed_w_functional", "x b a q lam p z", x, b, a, q, lam, p, z)
    if not (-a <= x <= b):
        raise DomainError("delayed_w_functional requires -a <= x <= b")
    ctx, k, g, f = rate_part(_delayed_w_modes, model, a, q, lam, p, z)
    return k * _two_sided(ctx, g, f, x, b) + 0.0  # an underflow is +0


def _delayed_w_modes(model: LevyModel, a: float, q: float, lam: float, p: float,
                     z: float) -> tuple:
    # (ctx, -lam e^{Phi_p z}, g, f) of the two-sided combination
    if not 0.0 < z <= a:
        raise DomainError("delayed_w_functional requires 0 < z <= a")
    if a < 0.0 or lam <= 0.0 or q < 0.0 or p < 0.0:
        raise DomainError("delayed_w_functional requires a, q >= 0, p >= 0, lam > 0")
    lam = represented_rate(q, lam, "delayed_w_functional")
    ctx, ctx_l = scale_context(model, q), scale_context(model, q + lam)
    # at p itself: q + (p - q) can round p away
    pf, pr = _pairs(scale_context(model, p), ctx_l)
    php, a_fp, t_fp, phl, a_fl, t_fl, s_f = pf[:7]
    rp, a_rp, t_rp, rl, a_rl, t_rl, s_r = pr[:7]
    hi = max(php, phl)
    # By the product rule g = sum_s [E_s] Z_q(., s) + E_s [Z_q(., s)], E_s = A'_s e^{s z}
    # over the roots s = Phi, r, with Z_q at the lower rate for r (farther from the pole).
    # Modulo f = sum_s E^lam_s(a) Z_q(., s^lam), [E_Phi] Z_q(., Phi^lam) is -[E_Phi]
    # E^lam_r(a) / E^lam_Phi(a) Z_q(., r^lam), bounded as z <= a; below -z, where scriptW
    # vanishes, g is -[E_Phi] / E^lam_Phi(a) f.  All is times e^{-Phi_p z}
    d_phi = _mode_dd(pf, z, hi * z) / a_fl
    c_l = -d_phi * a_rl * math.exp((hi - php) * z + (rl - phl) * a)
    c_f, c_r = a_fp / s_f, _mode_dd(pr, z, php * z)
    r_lo, t_lo, e_hi = (rl, t_rl, a_rp * math.exp((rp - php) * z)) if php > phl else (
        rp, t_rp, a_rl * math.exp((rl - php) * z))
    c_z = e_hi / s_r
    terms = ((c_l, rl, t_rl, None, None), (c_f, php, t_fp, phl, t_fl),
             (c_r, r_lo, t_lo, None, None), (c_z, rp, t_rp, rl, t_rl))
    c_phi, c_zeta, _, _, moments = _z_terms(ctx, terms)
    g = (c_phi, c_zeta, lambda y: _z_neg(y, terms) if y >= -z
         else -d_phi * _w_at(ctx_l, y + a, a - (hi - php) * z / phl), (), moments)
    f = _z_terms(ctx, ((a_fl, phl, t_fl, None, None), (a_rl * math.exp((rl - phl) * a), rl, t_rl,
                                                         None, None)))
    f = f[:2] + (_shifted, (ctx_l, a), f[4])  # W_{q+lam}(. + a) e^{-Phi_{q+lam} a} below 0
    return ctx, -lam * math.exp(php * z), g, f
