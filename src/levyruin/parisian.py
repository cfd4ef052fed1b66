"""Parisian ruin with exponential-sum, Erlang(2) and Erlang(n) implementation delays.

Every identity is closed-form in the two-mode scale quantities of
:mod:`levyruin.scale`: ratios and two-sided combinations factor out e^{Phi_q b},
and bounded quantities and ruin probabilities keep their decaying mode.
Removable singularities (p = lam, theta at Phi_q or Phi_{q+lam}) go through
confluent branches or analytic limits, never naive evaluation next to the pole.
The Erlang(2, lam) identities are the p = lam case of their Exp(p) + Exp(lam)
parents, whose confluences take closed-form p-derivatives of scriptW.  Erlang(n)
ruin and its deficit transforms are closed-form for every n: a recursion over the
delay's stages in which every term has one sign, so no Monte Carlo enters and
nothing cancels, in O(n^2) operations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NumericalError
from .models import (LevyModel, _phi_zeta, _psi_any, _psi_prime_any, _psi_second_any,
                     _psi_slopes, phi)
from .occupation import _occupation_inf, joint_lt_upcross
from .scale import (
    _decay,
    _lin,
    _neg,
    _ratio,
    _roots,
    _script_w_sum,
    _two_sided,
    _w_at,
    _w_dq,
    _w_tilde_dp_sum,
    _w_tilde_sum,
    _z_sum,
    _z_tilde_sum,
    scale_context,
    z_tilde,
)
from .util import clamp_unit, represented_rate, require_finite

_POLE_TOL = 1e-12
_TINY = 1e-200  # the Erlang(n) scale sc is folded into the coefficients below this
_MAX_TERMS = 4096  # the longest series for Erlang(n) ruin from x < 0
_ONE = (1.0, 0.0, lambda y: 1.0, ())  # at q = 0, where Phi_0 = 0: the mode e^{Phi_0 x}


def _psi_q(model: LevyModel, q: float, theta: float) -> float:
    return _psi_any(model, theta) - q


def _check_pole(theta: float, pole: float, label: str) -> None:
    if abs(theta - pole) <= _POLE_TOL * (1.0 + abs(pole)):
        raise DomainError(
            f"theta = {theta:g} hits the removable point {label} = {pole:g}; "
            "use the dedicated confluent entry point"
        )


def _e_script(ctx, lam: float, theta: float) -> tuple:
    # E^{(q,lam)}(., theta) = lam Z_q(., theta) - psi_q(theta) Z_q(., Phi_{lam+q})
    return _lin(lam, _z_sum(ctx, theta), -_psi_q(ctx.model, ctx.q, theta),
                _z_sum(ctx, phi(ctx.model, ctx.q + lam)))


def ruin_prob_sum_exp(model: LevyModel, x: float, p: float, lam: float) -> float:
    """Probability of Parisian ruin with per-excursion delay Exp(p) + Exp(lam).

    Complement 1 - k Z~_0(x, Phi_lam, Phi_p) of the infinite-horizon occupation
    transform; symmetric in (p, lam).  The Phi_0 = 0 mode of k Z~_0 is exactly 1, so
    for x >= 0 the ruin probability is its decaying part, without cancellation.
    """
    require_finite("ruin_prob_sum_exp", "x p lam", x, p, lam)
    ctx0, k, phl, php = _occupation_inf(model, p, lam)
    ruin = _decay(ctx0, _lin(1.0, _ONE, -k, _z_tilde_sum(ctx0, phl, php)), x)
    return clamp_unit(ruin, "ruin_prob_sum_exp")


def gs_lt_two_sided(model: LevyModel, x: float, b: float, q: float, p: float,
                    lam: float, theta: float) -> float:
    """E_x[ e^{-q rho + theta X_rho} ; rho < tau_b^+ ] for the Exp(p)+Exp(lam) delay."""
    require_finite("gs_lt_two_sided", "x b q p lam theta", x, b, q, p, lam, theta)
    if x > b:
        raise DomainError("gs_lt_two_sided requires x <= b")
    if p <= 0.0 or lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("gs_lt_two_sided requires p > 0, lam > 0, q >= 0, theta >= 0")
    lam, p = represented_rate(q, lam, "gs_lt_two_sided"), represented_rate(q, p, "gs_lt_two_sided")
    psi_l = _psi_q(model, q + lam, theta)
    if psi_l == math.inf:  # huge theta: X_rho < 0, so the value tends to 0
        return 0.0
    ctx = scale_context(model, q)
    phi_lq, phi_pq = phi(model, q + lam), phi(model, q + p)
    _check_pole(theta, phi_lq, "Phi_{q+lam}")
    _check_pole(theta, phi_pq, "Phi_{q+p}")
    # E / psi_{q+lam} before the factor p / psi_{q+p}: the product of the two psi
    # overflows from theta of about 1e77 on Brownian models while each is finite
    e = _lin(lam / psi_l, _z_sum(ctx, theta), -_psi_q(model, q, theta) / psi_l,
             _z_sum(ctx, phi_lq))
    return (p / _psi_q(model, q + p, theta)
            * _two_sided(ctx, e, _z_tilde_sum(ctx, phi_lq, phi_pq), x, b))


def gs_lt_infinite(model: LevyModel, x: float, q: float, p: float, lam: float,
                   theta: float) -> float:
    """E_x[ e^{-q rho + theta X_rho} ; rho < inf ] for the Exp(p)+Exp(lam) delay.

    psi_q(theta)/(theta - Phi_q) is the slope of psi between Phi_q and theta, regular
    at theta = Phi_q (so q = 0, theta = 0 under positive drift).  For x >= 0 the value
    lies in [0, 1], so only the decaying mode is kept, as a factored product of
    slopes that does not cancel next to theta = Phi_{q+lam}.
    """
    require_finite("gs_lt_infinite", "x q p lam theta", x, q, p, lam, theta)
    if p <= 0.0 or lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("gs_lt_infinite requires p > 0, lam > 0, q >= 0, theta >= 0")
    if q == 0.0:
        model.require_positive_drift("gs_lt_infinite with q = 0")
    lam, p = represented_rate(q, lam, "gs_lt_infinite"), represented_rate(q, p, "gs_lt_infinite")
    ctx = scale_context(model, q)
    phi_q = ctx.phi_q
    phi_lq, phi_pq = phi(model, q + lam), phi(model, q + p)
    _check_pole(theta, phi_lq, "Phi_{q+lam}")
    _check_pole(theta, phi_pq, "Phi_{q+p}")
    (slope_q, slope_l), (slope_p, _) = (_psi_slopes(model, theta, phi_q, phi_lq),
                                         _psi_slopes(model, theta, phi_pq, phi_pq))
    if x < 0.0:
        coeff = slope_q * (phi_lq - theta) * (phi_pq - phi_q) / p
        pref = p / (_psi_q(model, q + lam, theta) * _psi_q(model, q + p, theta))
        return pref * (_neg(_e_script(ctx, lam, theta), x)
                       - coeff * z_tilde(ctx, x, phi_lq, phi_pq))
    # the decaying mode, root r = -zeta_q and residue B: D(th, r) = psi_q(th)/(th - r)
    # turns E and z_tilde into products, and (Phi_{q+lam} - th)/psi_{q+lam}(th) into -1/slope
    _, (r, res, _) = _roots(ctx)
    c = (-res * slope_q * (phi_q - r) / (theta - r) * (p / (phi_pq - r))
         * (lam / (phi_lq - r)) / (slope_l * slope_p))
    return _decay(ctx, (0.0, c, None, ()), x)


def up_cross_three_barrier(model: LevyModel, x: float, b: float, a: float, q: float,
                           p: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < rho ^ tau_{-a}^- ] as a ratio of composite
    scale functions, taken mode by mode.

    The composite vanishes identically at p = lam, so the ratio is taken as the
    ratio of its closed-form p-derivatives there.  At a = 0 the lower barrier is
    the ruin level and the ratio is W_q(x)/W_q(b) (the composite is 0/0 on
    Brownian models, where W(0) = 0).
    """
    require_finite("up_cross_three_barrier", "x b a q p lam", x, b, a, q, p, lam)
    if not (-a <= x <= b):
        raise DomainError("up_cross_three_barrier requires -a <= x <= b")
    if a < 0.0 or p <= 0.0 or lam <= 0.0:
        raise DomainError("up_cross_three_barrier requires a >= 0, p > 0 and lam > 0")
    ctx = scale_context(model, q)
    if a == 0.0:
        # e^{Phi_q b} is factored out only where it would overflow, so that the ratio
        # is otherwise the plain W_q(x)/W_q(b)
        s = b if ctx.phi_q * b > 700.0 else 0.0
        return clamp_unit(_w_at(ctx, x, s) / _w_at(ctx, b, s), "up_cross_three_barrier")
    p = represented_rate(q, p, "up_cross_three_barrier")
    lam = represented_rate(q, lam, "up_cross_three_barrier")
    if abs(p - lam) > 1e-8 * (1.0 + lam):
        f = _w_tilde_sum(ctx, p, lam, a)
    else:
        f = _w_tilde_dp_sum(ctx, lam, a)
    return clamp_unit(_ratio(ctx, f, x, b), "up_cross_three_barrier")


def up_cross_before_ruin(model: LevyModel, x: float, b: float, q: float, p: float,
                         lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < rho ]: it coincides with
    :func:`levyruin.occupation.joint_lt_upcross`."""
    return joint_lt_upcross(model, x, b, q, p, lam)


def gerber_shiu_density(model: LevyModel, x: float, b: float, q: float, p: float,
                        lam: float, y: float) -> float:
    """Density in y <= 0 of e^{-q rho} 1{X_rho in dy, rho < tau_b^+}, p != lam."""
    require_finite("gerber_shiu_density", "x b q p lam y", x, b, q, p, lam, y)
    if abs(p - lam) <= 1e-10 * (1.0 + lam):
        raise DomainError(
            "gerber_shiu_density is singular at p = lam; use gs_density_e2 (Erlang(2))"
        )
    return _gs_density(model, x, b, q, p, lam, y, "gerber_shiu_density")


def _gs_density(model: LevyModel, x: float, b: float, q: float, p: float, lam: float,
                y: float, name: str) -> float:
    # Gerber-Shiu density for the Exp(p)+Exp(lam) delay, p == lam its confluent
    # (Erlang(2)) limit: p times the two-sided combination, against
    # f = Z~_q(., Phi_{q+lam}, Phi_{q+p}), of a xi-factor made of scriptW at length
    # L = -y, sums over the roots r of psi = q + lam and q + p.  Its r = Phi_{q+lam} term
    # is identically 0, and its r = Phi_{q+p} term is k0 e^{Phi_{q+p} L} f with
    # k0 = -A'_{Phi_{q+p}} / D(Phi_{q+lam}, Phi_{q+p}), which the combination maps to 0.
    # The decaying root terms c e^{s} Z_q^{(k)}(., theta), s = rL, are kept alone.
    if y > 0.0:
        raise DomainError(f"{name} requires y <= 0")
    if x > b:
        raise DomainError(f"{name} requires x <= b")
    if p <= 0.0 or lam <= 0.0 or q < 0.0:
        raise DomainError(f"{name} requires delay rates > 0 and q >= 0")
    # the rates as the roots see them, through q + lam and q + p
    lam, p = represented_rate(q, lam, name), represented_rate(q, p, name)
    ctx, length = scale_context(model, q), -y
    ctx_l, ctx_p = scale_context(model, q + lam), scale_context(model, q + p)
    (phi_l, _, t_l), (r_l, a_l, u_l) = _roots(ctx_l)
    (phi_p, a_phi_p, _), (r_p, a_p, u_p) = _roots(ctx_p)
    s_l, s_p = r_l * length, r_p * length
    # The terms' values at L = 0 sum to -W_q(0) Z_q(., Phi_{q+lam}) modulo f; on
    # Brownian models W_q(0) = 0, so e^{s_p} times them is dropped (keep = False), which
    # leaves the zero at y = 0 exact and no cancellation at any L
    keep, e_l, e_p = ctx.w0 != 0.0, math.exp(s_l), math.exp(s_p)
    if p == lam:
        # -d/dp at p = lam of the p part's term A'_r e^{rL} (p Z(Phi_{q+lam}) - lam Z(r)),
        # r = -zeta_{q+p}, which the lam part cancels there; dr/dp = A' and
        # dA'/dp = -psi''(r) A'^3.  The weights go like lam A'^2 ~ lam^-3 on
        # Cramer-Lundberg models, and underflow past lam ~ 1e100
        if abs(lam * a_l * a_l) < sys.float_info.min:
            raise NumericalError(
                f"{name}: at q + lam = {q + lam:g} the root -zeta_{{q+lam}} lies within "
                f"{u_l:.3g} of the pole -alpha of psi, and its terms leave the float range")
        la, e_c = lam * a_l, e_l if keep else 0.0
        hl = _psi_second_any(model, r_l, u_l) * a_l * la
        terms = ((a_l * (hl - 1.0), s_l, phi_l, t_l, 0, e_c), (-a_l * hl, s_l, r_l, u_l, 0, e_c),
                 (la * a_l, s_l, r_l, u_l, 1, e_c), (-la * a_l * length, s_l, phi_l, t_l, 0, e_l),
                 (la * a_l * length, s_l, r_l, u_l, 0, e_l))
    else:
        c_l, c_p = lam / (lam - p) * a_l, a_p / (lam - p)
        if not keep:  # (e^{s_l} - e^{s_p}) times the lam part
            e_l = -e_l * math.expm1(s_p - s_l) if s_l >= s_p else e_p * math.expm1(s_l - s_p)
            e_p = 0.0
        # a residue 0, at a root rounded to the pole, drops its term
        terms = tuple(tm for tm in ((c_l, s_l, r_l, u_l, 0, e_l), (-c_l, s_l, phi_l, t_l, 0, e_l),
                                    (p * c_p, s_p, phi_l, t_l, 0, e_p),
                                    (-lam * c_p, s_p, r_p, u_p, 0, e_p)) if tm[0])
    c_phi = c_zeta = 0.0
    for c, _, theta, t, k, e in terms:
        if e:
            z_phi, z_zeta = _z_sum(ctx, theta, k, t)[:2]
            c_phi, c_zeta = c_phi + c * e * z_phi, c_zeta + c * e * z_zeta
    # On x < 0 the factor is the same multiple of f off the full one as on x >= 0.  The
    # r = Phi_{q+p} term is k0 e^{Phi_{q+p} L} f, D = D(Phi_{q+lam}, Phi_{q+p}); dropping
    # the L-constant terms drops k0 e^{s_p} f more.  Below -L, where scriptW vanishes, the
    # full factor less that term is lam/(lam-p) (W_{q+p}(L) e^{Phi_{q+p} y} - W_{q+lam}(L)
    # e^{Phi_{q+lam} y}) - A'_{r_p} e^{s_p} / D f(y), and on Brownian models, where
    # A'_{r_p} = -A'_{Phi_{q+p}}, the dropped part cancels its f term
    f, d = _z_tilde_sum(ctx, phi_l, phi_p), _psi_slopes(model, phi_l, phi_p, phi_p)[0]
    k_drop, k_zeta = (0.0, -a_p * e_p / d) if keep else (-a_phi_p * math.exp(s_p) / d, 0.0)
    g = (c_phi, c_zeta, _gs_neg, (terms, length, k_drop, k_zeta, f, ctx_l, ctx_p, p, lam))
    return p * _two_sided(ctx, g, f, x, b)


def _gs_neg(y: float, terms: tuple, length: float, k_drop: float, k_zeta: float, f: tuple,
            ctx_l, ctx_p, p: float, lam: float) -> float:
    # the xi-factor at y < 0: on [-L, 0) the terms with Z_q(y, theta) = e^{theta y} and
    # weights e^{rL}, plus k_drop f; below -L the W terms, whose limit at p = lam is
    # -lam d/dp (W_{q+p}(L) e^{Phi_{q+p} y}), plus k_zeta f
    if y >= -length:
        return (sum(c * y ** k * math.exp(theta * y + s) for c, s, theta, _, k, _ in terms)
                + k_drop * _neg(f, y))
    if p == lam:
        val = -lam * (_w_dq(ctx_l, length, -y) + y * ctx_l.coeff_a * _w_at(ctx_l, length, -y))
    else:
        val = lam / (lam - p) * (_w_at(ctx_p, length, -y) - _w_at(ctx_l, length, -y))
    return val + k_zeta * _neg(f, y)


def lt_occupation_exp_horizon(model: LevyModel, x: float, p: float, q: float,
                              lam: float) -> float:
    """E_x[ e^{-p O_{e_q, lam}} ]: occupation up to an independent Exp(q) horizon.

    Valid for any drift (the exponential horizon keeps everything finite).  The
    value is 1 minus a scale combination that is bounded in x, so for x >= 0 only
    the combination's decaying mode is kept.
    """
    require_finite("lt_occupation_exp_horizon", "x p q lam", x, p, q, lam)
    if q <= 0.0:
        raise DomainError("lt_occupation_exp_horizon requires q > 0")
    if lam <= 0.0 or p < 0.0:
        raise DomainError("lt_occupation_exp_horizon requires lam > 0 and p >= 0")
    if p == 0.0:
        return 1.0
    lam = represented_rate(q, lam, "lt_occupation_exp_horizon")
    p = represented_rate(q, p, "lt_occupation_exp_horizon")
    ctx = scale_context(model, q)
    phi_q = ctx.phi_q
    phi_lq, phi_pq = phi(model, q + lam), phi(model, q + p)
    # q phi_lq (phi_pq - phi_q) / phi_q, with q / phi_q and p / (phi_pq - phi_q) as slopes
    slope_0, slope_p = _psi_slopes(model, phi_q, 0.0, phi_pq)
    k = phi_lq * p * slope_0 / slope_p
    e0 = _lin(lam, _z_sum(ctx, 0.0), q, _z_sum(ctx, phi_lq))
    combined = _lin(p, e0, -k, _z_tilde_sum(ctx, phi_lq, phi_pq))
    val = 1.0 - _decay(ctx, combined, x) / ((lam + q) * (p + q))
    return clamp_unit(val, "lt_occupation_exp_horizon")


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
    """Gerber-Shiu density at Erlang(2, lam) Parisian ruin: the p = lam limit of
    :func:`gerber_shiu_density`, in closed form."""
    require_finite("gs_density_e2", "x b q lam y", x, b, q, lam, y)
    return _gs_density(model, x, b, q, lam, lam, y, "gs_density_e2")


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


def _erlang_setup(model: LevyModel, x: float) -> tuple:
    # what every (lam, n) from x shares: the drift check, Z_0's context and e^{-zeta_0 x}
    model.require_positive_drift("the Erlang(n) recursion")
    ctx0 = scale_context(model, 0.0)
    return ctx0, x, math.exp(-ctx0.zeta_q * x) if x >= 0.0 else 0.0


def _erlang(model: LevyModel, setup: tuple, lam: float, n: int, ruin: bool) -> float:
    # The ruin probability, or the deficit transform T_n.  From x >= 0 the law of the
    # deficit below 0 does not depend on x (the process creeps, or a memoryless claim
    # takes it there): the x = 0 value times e^{-zeta_0 x}.  From x < 0 the process
    # climbs to 0 and starts afresh there: L^n e^{theta x} plus p_0 + ... + p_{n-1}
    # times the x = 0 value.  At theta = 0 L^n e^{theta x} is 1 - head, to some ulp of
    # 1; where that is not within 1e-14 of the value its series is summed instead, to
    # twice as many coefficients until the last is below the rounding of the sum, and
    # past 4096 coefficients (Phi / gap near 1) it is a numerical error
    ctx0, x, decay = setup
    rates = _erlang_rates(model, lam)
    at_0 = _erlang_origin(model, ctx0, rates, n)[0 if ruin else 1]
    if x >= 0.0:
        return at_0 * decay
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
                f"Erlang({n}) ruin from x = {x:g} at lam = {lam:g}: the series of the "
                f"clock points before tau_0^+ has not converged in {_MAX_TERMS} terms")
        size = min(2 * size, _MAX_TERMS)


def deficit_transform_t0(model: LevyModel, x: float, lam: float) -> float:
    """E_x[ e^{Phi_lam X_{T_0^-}} ; T_0^- < inf ]: the deficit transform at the first
    Poisson observation below 0, the first stage of the Erlang recursion."""
    require_finite("deficit_transform_t0", "x lam", x, lam)
    return _erlang(model, _erlang_setup(model, x), lam, 1, False)


def deficit_transform_erlang2(model: LevyModel, x: float, lam: float) -> float:
    """E_x[ e^{Phi_lam X_{rho^{(2)}}} ; rho^{(2)} < inf ]: its second stage."""
    require_finite("deficit_transform_erlang2", "x lam", x, lam)
    return _erlang(model, _erlang_setup(model, x), lam, 2, False)


def ruin_prob_erlang_n(model: LevyModel, x: float, lam: float, n: int) -> float:
    """Probability of Parisian ruin with an Erlang(n, lam) delay per excursion, in
    closed form for every n: O(n^2) operations on sums of nonnegative terms."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("ruin_prob_erlang_n requires integer n >= 1")
    require_finite("ruin_prob_erlang_n", "x lam", x, lam)
    return clamp_unit(_erlang(model, _erlang_setup(model, x), lam, n, True),
                      "ruin_prob_erlang_n")


@dataclass(frozen=True)
class FixedDelayResult:
    """Erlang(n, n/r) approximation of fixed-delay Parisian ruin, with the
    convergence sequence over n in {1, 2, 4, 8, ...} up to the requested n."""

    value: float
    sequence: tuple  # ((n_k, value_k), ...)

    def __float__(self) -> float:
        return self.value


def fixed_delay_approx(model: LevyModel, x: float, r: float, n: int) -> FixedDelayResult:
    """Approximate fixed-delay (kappa_r) Parisian ruin by Erlang(n, n/r) delays."""
    require_finite("fixed_delay_approx", "x r", x, r)
    if r <= 0.0:
        raise DomainError("fixed_delay_approx requires r > 0")
    if not isinstance(n, int) or n < 1:
        raise DomainError("fixed_delay_approx requires integer n >= 1")
    ns = [1 << k for k in range(n.bit_length())]
    if ns[-1] != n:
        ns.append(n)
    setup = _erlang_setup(model, x)
    seq = tuple((nk, clamp_unit(_erlang(model, setup, nk / r, nk, True), "ruin_prob_erlang_n"))
                for nk in ns)
    return FixedDelayResult(value=seq[-1][1], sequence=seq)


# ---------------------------------------------------------------------------
# Fluctuation identities at the first Poisson observation below 0
# ---------------------------------------------------------------------------


def t0_joint_lt(model: LevyModel, x: float, b: float, q: float, lam: float,
                theta: float) -> float:
    """E_x[ e^{-q T_0^- + theta X_{T_0^-}} ; T_0^- < tau_b^+ ]."""
    require_finite("t0_joint_lt", "x b q lam theta", x, b, q, lam, theta)
    if x > b:
        raise DomainError("t0_joint_lt requires x <= b")
    if lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("t0_joint_lt requires lam > 0, q >= 0, theta >= 0")
    lam = represented_rate(q, lam, "t0_joint_lt")
    ctx = scale_context(model, q)
    denom = lam - _psi_q(model, q, theta)
    if abs(denom) <= _POLE_TOL * (1.0 + lam):
        raise DomainError(
            "theta satisfies psi_q(theta) = lam (theta = Phi_{q+lam}), a removable point"
        )
    ph = phi(model, q + lam)
    return (lam / denom) * _two_sided(ctx, _z_sum(ctx, theta), _z_sum(ctx, ph), x, b)


def upcross_before_t0_two_sided(model: LevyModel, x: float, b: float, a: float,
                                q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < T_0^- ^ tau_{-a}^- ]."""
    require_finite("upcross_before_t0_two_sided", "x b a q lam", x, b, a, q, lam)
    if not (-a <= x <= b):
        raise DomainError("upcross_before_t0_two_sided requires -a <= x <= b")
    if a < 0.0 or lam <= 0.0 or q < 0.0:
        raise DomainError("upcross_before_t0_two_sided requires a >= 0, lam > 0, q >= 0")
    lam = represented_rate(q, lam, "upcross_before_t0_two_sided")
    ctx = scale_context(model, q)
    return clamp_unit(_ratio(ctx, _script_w_sum(ctx, scale_context(model, q + lam), a), x, b),
                      "upcross_before_t0_two_sided")


def upcross_before_t0(model: LevyModel, x: float, b: float, q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < T_0^- ]."""
    require_finite("upcross_before_t0", "x b q lam", x, b, q, lam)
    if x > b:
        raise DomainError("upcross_before_t0 requires x <= b")
    if lam <= 0.0 or q < 0.0:
        raise DomainError("upcross_before_t0 requires lam > 0 and q >= 0")
    lam = represented_rate(q, lam, "upcross_before_t0")
    ctx = scale_context(model, q)
    ph = phi(model, q + lam)
    return clamp_unit(_ratio(ctx, _z_sum(ctx, ph), x, b), "upcross_before_t0")


def delayed_w_functional(model: LevyModel, x: float, b: float, a: float, q: float,
                         lam: float, p: float, z: float) -> float:
    """E_x[ e^{-q T_0^-} W_p(X_{T_0^-} + z) ; T_0^- < tau_b^+ ^ tau_{-a}^- ].

    The point p = q + lam is removable: the difference quotients in p become the
    closed-form p-derivatives of the second-generation scale function there.
    z > a is rejected: there the formula disagrees with its Monte Carlo
    counterpart ``T0_w_weight`` and can go negative.  A value too large for a float
    (W_p at a huge p) raises ``OverflowError``.
    """
    require_finite("delayed_w_functional", "x b a q lam p z", x, b, a, q, lam, p, z)
    if not (-a <= x <= b):
        raise DomainError("delayed_w_functional requires -a <= x <= b")
    if not 0.0 < z <= a:
        raise DomainError("delayed_w_functional requires 0 < z <= a")
    if a < 0.0 or lam <= 0.0 or q < 0.0 or p < 0.0:
        raise DomainError("delayed_w_functional requires a, q >= 0, p >= 0, lam > 0")
    lam = represented_rate(q, lam, "delayed_w_functional")
    ctx, ctx_l = scale_context(model, q), scale_context(model, q + lam)
    pole = q + lam
    # lam / (p - pole) (f(x) g(b) / f(b) - g(x)) with f = script_w(ctx, lam, ., . + a)
    # and g the difference quotient in p at length z, or its p-derivative at the pole
    f = _script_w_sum(ctx, ctx_l, a)
    if abs(p - pole) <= 1e-8 * (1.0 + pole):
        k, g = -lam * math.exp(ctx_l.phi_q * z), _script_w_sum(ctx, ctx_l, z, dp=True)
    else:
        # scriptW^{(q,lam)}(xi, xi + z) less e^{Phi (z - a)} f, Phi = Phi_{q+lam}: its Phi
        # term is that multiple of f's, and the rest, bounded for z <= a, is
        # A'_r e^{r z} (1 - e^{(Phi - r)(z - a)}) Z_q(xi, r) at r = -zeta_{q+lam}, or below
        # xi = -z, where scriptW vanishes, -e^{Phi (z - a)} W_{q+lam}(xi + a)
        (ph, _, _), (r, ar, t) = _roots(ctx_l)
        c = -ar * math.exp(r * z) * math.expm1((ph - r) * (z - a))
        z_phi, z_zeta = _z_sum(ctx, r, 0, t)[:2] if c else (0.0, 0.0)
        g_l = (c * z_phi, c * z_zeta, lambda y: c * math.exp(r * y) if y >= -z
               else -_w_at(ctx_l, y + a, a - z), ())
        ctx_p = scale_context(model, p)  # at p itself: q + (p - q) can round p away
        k, e_p = -lam / (p - pole), math.exp(ctx_p.phi_q * z)
        g = _lin(e_p, _script_w_sum(ctx, ctx_p, z), -1.0, g_l)
    return k * _two_sided(ctx, g, f, x, b)
