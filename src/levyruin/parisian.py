"""Parisian ruin with exponential-sum, Erlang(2) and Erlang(n) implementation delays.

Every identity is closed-form in the scale functions.  Removable singularities
(p = lam confluences, theta at the drift root Phi_q, theta at Phi_{q+lam}) are
evaluated through dedicated confluent branches or analytic limits, never by naive
evaluation next to the pole.  The Erlang(2, lam) identities are the p = lam case
of their Exp(p) + Exp(lam) parents, whose p = lam confluences take the closed-form
p-derivatives of the second-generation scale function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .errors import DomainError, NumericalError
from .models import LevyModel, _psi_any, _psi_prime_any, _psi_second_any, _psi_slope_any, phi
from .occupation import joint_lt_upcross, lt_occupation_inf
from .scale import (
    _script_w_dp,
    _w_dq,
    _z_d2theta,
    scale_context,
    script_w,
    w,
    w_tilde,
    z,
    z_tilde,
)
from .util import clamp_unit

_POLE_TOL = 1e-12
_DENSITY_CLAMP = 1e-9


def _psi_q(model: LevyModel, q: float, theta: float) -> float:
    return _psi_any(model, theta) - q


def _floor_density(val: float, floor: float, what: str) -> float:
    if abs(val) <= floor:
        return 0.0
    if val < 0.0:
        if val < -max(_DENSITY_CLAMP, floor):
            raise NumericalError(f"{what} significantly negative: {val!r}")
        return 0.0
    return val


def _check_pole(theta: float, pole: float, label: str) -> None:
    if abs(theta - pole) <= _POLE_TOL * (1.0 + abs(pole)):
        raise DomainError(
            f"theta = {theta:g} hits the removable point {label} = {pole:g}; "
            "use the dedicated confluent entry point"
        )


def _e_script(model: LevyModel, ctx, lam: float, x: float, theta: float) -> float:
    # E^{(q,lam)}(x, theta) = lam Z_q(x,theta) - psi_q(theta) Z_q(x, Phi_{lam+q})
    phi_lq = phi(model, ctx.q + lam)
    return lam * z(ctx, x, theta) - _psi_q(model, ctx.q, theta) * z(ctx, x, phi_lq)


def ruin_prob_sum_exp(model: LevyModel, x: float, p: float, lam: float) -> float:
    """Probability of Parisian ruin with per-excursion delay Exp(p) + Exp(lam).

    Complement of the infinite-horizon occupation transform; symmetric in (p, lam).
    """
    return clamp_unit(1.0 - lt_occupation_inf(model, x, p, lam), "ruin_prob_sum_exp")


def gs_lt_two_sided(model: LevyModel, x: float, b: float, q: float, p: float,
                    lam: float, theta: float) -> float:
    """E_x[ e^{-q rho + theta X_rho} ; rho < tau_b^+ ] for the Exp(p)+Exp(lam) delay."""
    if x > b:
        raise DomainError("gs_lt_two_sided requires x <= b")
    if p <= 0.0 or lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("gs_lt_two_sided requires p > 0, lam > 0, q >= 0, theta >= 0")
    ctx = scale_context(model, q)
    phi_lq = phi(model, q + lam)
    phi_pq = phi(model, q + p)
    _check_pole(theta, phi_lq, "Phi_{q+lam}")
    _check_pole(theta, phi_pq, "Phi_{q+p}")
    ratio = z_tilde(ctx, x, phi_lq, phi_pq) / z_tilde(ctx, b, phi_lq, phi_pq)
    pref = p / (_psi_q(model, q + lam, theta) * _psi_q(model, q + p, theta))
    return pref * (
        _e_script(model, ctx, lam, x, theta) - ratio * _e_script(model, ctx, lam, b, theta)
    )


def gs_lt_infinite(model: LevyModel, x: float, q: float, p: float, lam: float,
                   theta: float) -> float:
    """E_x[ e^{-q rho + theta X_rho} ; rho < inf ] for the Exp(p)+Exp(lam) delay.

    psi_q(theta)/(theta - Phi_q) is the slope of psi between Phi_q and theta, regular
    at theta = Phi_q (so q = 0, theta = 0 under positive drift).  For x >= 0 the value
    lies in [0, 1], so the e^{Phi_q x} mode cancels exactly: only the e^{-zeta_q x}
    mode rho(th) B (th - Phi_q) e^{-zeta_q x} of each Z_q is kept.
    """
    if p <= 0.0 or lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("gs_lt_infinite requires p > 0, lam > 0, q >= 0, theta >= 0")
    if q == 0.0:
        model.require_positive_drift("gs_lt_infinite with q = 0")
    ctx = scale_context(model, q)
    phi_q, zeta = ctx.phi_q, ctx.zeta_q
    phi_lq = phi(model, q + lam)
    phi_pq = phi(model, q + p)
    _check_pole(theta, phi_lq, "Phi_{q+lam}")
    _check_pole(theta, phi_pq, "Phi_{q+p}")
    slope_q = _psi_slope_any(model, theta, phi_q)
    if x >= 0.0:
        # rho(th)(th - Phi_q) = psi_q(th)/(th + zeta_q) turns E and z_tilde into
        # products, and (Phi_{q+lam} - th)/psi_{q+lam}(th) into -1/slope
        slopes = (_psi_slope_any(model, theta, phi_lq) * _psi_slope_any(model, theta, phi_pq)
                  * (phi_lq + zeta) * (theta + zeta) * (phi_pq + zeta))
        return (-ctx.coeff_b * math.exp(-zeta * x) * p * lam * slope_q * (phi_q + zeta)
                / slopes)
    coeff = slope_q * (phi_lq - theta) * (phi_pq - phi_q) / p
    pref = p / (_psi_q(model, q + lam, theta) * _psi_q(model, q + p, theta))
    return pref * (
        _e_script(model, ctx, lam, x, theta) - coeff * z_tilde(ctx, x, phi_lq, phi_pq)
    )


def up_cross_three_barrier(model: LevyModel, x: float, b: float, a: float, q: float,
                           p: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < rho ^ tau_{-a}^- ] as a ratio of composite
    scale functions.

    The composite vanishes identically at p = lam, so the ratio is taken as the
    ratio of its closed-form p-derivatives there.  At a = 0 the lower barrier is
    the ruin level and the ratio is W_q(x)/W_q(b) (the composite is 0/0 on
    Brownian models, where W(0) = 0).
    """
    if not (-a <= x <= b):
        raise DomainError("up_cross_three_barrier requires -a <= x <= b")
    if a < 0.0 or p <= 0.0 or lam <= 0.0:
        raise DomainError("up_cross_three_barrier requires a >= 0, p > 0 and lam > 0")
    ctx = scale_context(model, q)
    if a == 0.0:
        return clamp_unit(w(ctx, x) / w(ctx, b), "up_cross_three_barrier")
    if abs(p - lam) > 1e-8 * (1.0 + lam):
        val = w_tilde(model, q, p, lam, x, a) / w_tilde(model, q, p, lam, b, a)
        return clamp_unit(val, "up_cross_three_barrier")
    ctx_l = scale_context(model, q + lam)
    w_l = w(ctx_l, a)
    w_dp = w_l + lam * _w_dq(ctx_l, a)

    def w_tilde_dp(xi: float) -> float:
        # d/dp of w_tilde at p = lam
        sw = script_w(ctx, lam, xi, xi + a)
        return lam * _script_w_dp(ctx, lam, xi, xi + a) * w_l - sw * w_dp

    return clamp_unit(w_tilde_dp(x) / w_tilde_dp(b), "up_cross_three_barrier")


def up_cross_before_ruin(model: LevyModel, x: float, b: float, q: float, p: float,
                         lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < rho ].

    Shares its implementation with :func:`levyruin.occupation.joint_lt_upcross`
    (the two quantities coincide).
    """
    return joint_lt_upcross(model, x, b, q, p, lam)


def gerber_shiu_density(model: LevyModel, x: float, b: float, q: float, p: float,
                        lam: float, y: float) -> float:
    """Density in y <= 0 of e^{-q rho} 1{X_rho in dy, rho < tau_b^+}, p != lam."""
    if abs(p - lam) <= 1e-10 * (1.0 + lam):
        raise DomainError(
            "gerber_shiu_density is singular at p = lam; use gs_density_e2 (Erlang(2))"
        )
    return _gs_density(model, x, b, q, p, lam, y, "gerber_shiu_density")


def _gs_density(model: LevyModel, x: float, b: float, q: float, p: float, lam: float,
                y: float, name: str) -> float:
    # Gerber-Shiu density for the Exp(p)+Exp(lam) delay; p == lam is its confluent
    # (Erlang(2)) limit, where the difference quotients in p become p-derivatives
    if y > 0.0:
        raise DomainError(f"{name} requires y <= 0")
    if x > b:
        raise DomainError(f"{name} requires x <= b")
    if p <= 0.0 or lam <= 0.0 or q < 0.0:
        raise DomainError(f"{name} requires delay rates > 0 and q >= 0")
    ctx = scale_context(model, q)
    phi_lq = phi(model, q + lam)
    phi_pq = phi(model, q + p)
    w_l = w(scale_context(model, q + lam), -y)
    confluent = p == lam
    if confluent:
        w_dq = lam * _w_dq(scale_context(model, q + lam), -y)
        bracket, bracket_mag = w_l + w_dq, w_l + abs(w_dq)
    else:
        w_p = w(scale_context(model, q + p), -y)
        bracket = (lam * w_l - p * w_p) / (lam - p)
        bracket_mag = (lam * w_l + p * w_p) / abs(lam - p)

    def e_y(xi: float):
        # (value, magnitude of the cancelling terms) of the xi-dependent factor
        if confluent:
            conv = lam * _script_w_dp(ctx, lam, xi, xi - y)
            conv_mag = abs(conv)
        else:
            wl = script_w(ctx, lam, xi, xi - y)
            wp = script_w(ctx, p, xi, xi - y)
            conv = (wl - wp) * lam / (lam - p)
            conv_mag = (abs(wl) + abs(wp)) * lam / abs(lam - p)
        zv = z(ctx, xi, phi_lq)
        return conv - zv * bracket, conv_mag + abs(zv) * bracket_mag

    ratio = z_tilde(ctx, x, phi_lq, phi_pq) / z_tilde(ctx, b, phi_lq, phi_pq)
    ex, mx = e_y(x)
    eb, mb = e_y(b)
    val = p * (ex - ratio * eb)
    # the exponentially growing pieces cancel against a decaying true value; below
    # the cancellation floor the sign and size are meaningless
    floor = 1e-11 * p * (mx + abs(ratio) * mb) + 1e-10
    return _floor_density(val, floor, "Gerber-Shiu density")


def lt_occupation_exp_horizon(model: LevyModel, x: float, p: float, q: float,
                              lam: float) -> float:
    """E_x[ e^{-p O_{e_q, lam}} ]: occupation up to an independent Exp(q) horizon.

    Valid for any drift (the exponential horizon keeps everything finite).
    """
    if q <= 0.0:
        raise DomainError("lt_occupation_exp_horizon requires q > 0")
    if lam <= 0.0 or p < 0.0:
        raise DomainError("lt_occupation_exp_horizon requires lam > 0 and p >= 0")
    if p == 0.0:
        return 1.0
    ctx = scale_context(model, q)
    phi_q = ctx.phi_q
    phi_lq = phi(model, q + lam)
    phi_pq = phi(model, q + p)
    e0 = lam * z(ctx, x, 0.0) + q * z(ctx, x, phi_lq)
    combined = p * e0 - q * phi_lq * (phi_pq - phi_q) / phi_q * z_tilde(ctx, x, phi_lq, phi_pq)
    val = 1.0 - combined / ((lam + q) * (p + q))
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


def gs_lt_infinite_e2_confluent(model: LevyModel, x: float, q: float, lam: float) -> float:
    """theta -> Phi_{q+lam} limit of :func:`gs_lt_infinite_e2` (a double pole with a
    double zero; second-order expansion).

    Supplies E_x[ e^{-q rho^{(2)} + Phi_{q+lam} X} ; rho^{(2)} < inf ] for the
    Erlang recursion.
    """
    if lam <= 0.0 or q < 0.0:
        raise DomainError("gs_lt_infinite_e2_confluent requires lam > 0 and q >= 0")
    if q == 0.0:
        model.require_positive_drift("gs_lt_infinite_e2_confluent with q = 0")
    ctx = scale_context(model, q)
    phi_q = ctx.phi_q
    ph = phi(model, q + lam)
    psip = _psi_prime_any(model, ph)
    psis = _psi_second_any(model, ph)
    zt = z_tilde(ctx, x, ph, ph)
    bracket2 = (
        lam * _z_d2theta(ctx, x, ph)
        - psis * z(ctx, x, ph)
        - (2.0 / (ph - phi_q) - 2.0 * psip / lam) * zt
    )
    return lam * bracket2 / (2.0 * psip * psip)


def gs_density_e2(model: LevyModel, x: float, b: float, q: float, lam: float,
                  y: float) -> float:
    """Gerber-Shiu density at Erlang(2, lam) Parisian ruin: the p = lam limit of
    :func:`gerber_shiu_density`, in closed form."""
    return _gs_density(model, x, b, q, lam, lam, y, "gs_density_e2")


# ---------------------------------------------------------------------------
# Erlang(n) recursion and the fixed-delay approximation
# ---------------------------------------------------------------------------


def deficit_transform_t0(model: LevyModel, x: float, lam: float) -> float:
    """E_x[ e^{Phi_lam X_{T_0^-}} ; T_0^- < inf ].

    b -> inf, theta -> Phi_lam limit of the joint transform at the first Poisson
    observation below 0; feeds the n = 2 step of the Erlang recursion.
    """
    model.require_positive_drift("deficit_transform_t0")
    ctx0 = scale_context(model, 0.0)
    ph = phi(model, lam)
    psip = _psi_prime_any(model, ph)
    return (z_tilde(ctx0, x, ph, ph) - lam * z(ctx0, x, ph) / ph) / psip


def deficit_transform_erlang2(model: LevyModel, x: float, lam: float) -> float:
    """E_x[ e^{Phi_lam X_{rho^{(2)}}} ; rho^{(2)} < inf ]; feeds the n = 3 step."""
    return gs_lt_infinite_e2_confluent(model, x, 0.0, lam)


@dataclass(frozen=True)
class ErlangNResult:
    """Erlang(n, lam) Parisian ruin probability with recursion metadata.

    ``method`` is "analytic" for n <= 3 and "hybrid_mc" when Monte Carlo estimates
    of the deficit transforms entered the recursion (n >= 4); the estimates used
    are then listed in ``mc_transforms`` as (k, start, estimate) triples.
    """

    value: float
    n: int
    lam: float
    x: float
    method: str
    mc_transforms: tuple = ()

    def __float__(self) -> float:
        return self.value


def ruin_prob_erlang_n(model: LevyModel, x: float, lam: float, n: int,
                       mc_config=None, workers: int = 1) -> ErlangNResult:
    """Probability of Parisian ruin with an Erlang(n, lam) delay per excursion.

    Survival recursion over n.  The deficit transforms E[ e^{Phi_lam X_rho} ] are
    closed-form for the first two stages; from n >= 4 they are estimated by the
    Monte Carlo oracle (pass ``mc_config``), and the result is labeled hybrid.
    """
    model.require_positive_drift("ruin_prob_erlang_n")
    if lam <= 0.0:
        raise DomainError("ruin_prob_erlang_n requires lam > 0")
    if not isinstance(n, int) or n < 1:
        raise DomainError("ruin_prob_erlang_n requires integer n >= 1")
    if n >= 4 and mc_config is None:
        raise DomainError(
            "ruin_prob_erlang_n with n >= 4 needs mc_config for the hybrid "
            "Monte Carlo deficit-transform estimates"
        )
    ctx0 = scale_context(model, 0.0)
    ph = phi(model, lam)
    mean = model.mean()
    surv_x = clamp_unit(mean * (ph / lam) * z(ctx0, x, ph), "Erlang survival")
    surv_0 = clamp_unit(mean * (ph / lam) * z(ctx0, 0.0, ph), "Erlang survival")
    mc_transforms = []

    def transform(k: int, start: float) -> float:
        if k == 1:
            return deficit_transform_t0(model, start, lam)
        if k == 2:
            return deficit_transform_erlang2(model, start, lam)
        from .mc import PathFunctional, estimate  # local: keeps the analytic layer light

        fn = PathFunctional(
            name="rho_erlang",
            params={"n": float(k), "lam": lam, "construction": "observation"},
            x0=start,
            tilt_theta=ph,
        )
        est = estimate(model, mc_config, fn, workers=workers)
        mc_transforms.append((k, start, est))
        return est.value

    for k in range(2, n + 1):
        t_x = transform(k - 1, x)
        t_0 = transform(k - 1, 0.0)
        surv_x = surv_x + surv_0 * t_x / (1.0 - t_0)
        surv_0 = surv_0 / (1.0 - t_0)
    value = clamp_unit(1.0 - surv_x, "ruin_prob_erlang_n")
    return ErlangNResult(
        value=value,
        n=n,
        lam=lam,
        x=x,
        method="analytic" if n <= 3 else "hybrid_mc",
        mc_transforms=tuple(mc_transforms),
    )


@dataclass(frozen=True)
class FixedDelayResult:
    """Erlang(n, n/r) approximation of fixed-delay Parisian ruin, with the
    convergence sequence over n in {1, 2, 4, 8, ...} up to the requested n."""

    value: float
    r: float
    n: int
    x: float
    sequence: tuple  # ((n_k, value_k), ...)

    def __float__(self) -> float:
        return self.value


def fixed_delay_approx(model: LevyModel, x: float, r: float, n: int,
                       mc_config=None, workers: int = 1) -> FixedDelayResult:
    """Approximate fixed-delay (kappa_r) Parisian ruin by Erlang(n, n/r) delays."""
    if r <= 0.0:
        raise DomainError("fixed_delay_approx requires r > 0")
    if not isinstance(n, int) or n < 1:
        raise DomainError("fixed_delay_approx requires integer n >= 1")
    ns = sorted({2 ** k for k in range(0, 40) if 2 ** k <= n} | {n})
    seq = []
    for nk in ns:
        res = ruin_prob_erlang_n(model, x, nk / r, nk, mc_config=mc_config, workers=workers)
        seq.append((nk, res.value))
    return FixedDelayResult(value=seq[-1][1], r=r, n=n, x=x, sequence=tuple(seq))


# ---------------------------------------------------------------------------
# Fluctuation identities at the first Poisson observation below 0
# ---------------------------------------------------------------------------


def t0_joint_lt(model: LevyModel, x: float, b: float, q: float, lam: float,
                theta: float) -> float:
    """E_x[ e^{-q T_0^- + theta X_{T_0^-}} ; T_0^- < tau_b^+ ]."""
    if x > b:
        raise DomainError("t0_joint_lt requires x <= b")
    if lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("t0_joint_lt requires lam > 0, q >= 0, theta >= 0")
    ctx = scale_context(model, q)
    denom = lam - _psi_q(model, q, theta)
    if abs(denom) <= _POLE_TOL * (1.0 + lam):
        raise DomainError(
            "theta satisfies psi_q(theta) = lam (theta = Phi_{q+lam}), a removable point"
        )
    ph = phi(model, q + lam)
    return (lam / denom) * (
        z(ctx, x, theta) - z(ctx, x, ph) * z(ctx, b, theta) / z(ctx, b, ph)
    )


def upcross_before_t0_two_sided(model: LevyModel, x: float, b: float, a: float,
                                q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < T_0^- ^ tau_{-a}^- ]."""
    if not (-a <= x <= b):
        raise DomainError("upcross_before_t0_two_sided requires -a <= x <= b")
    if a < 0.0 or lam <= 0.0 or q < 0.0:
        raise DomainError("upcross_before_t0_two_sided requires a >= 0, lam > 0, q >= 0")
    ctx = scale_context(model, q)
    val = script_w(ctx, lam, x, x + a) / script_w(ctx, lam, b, b + a)
    return clamp_unit(val, "upcross_before_t0_two_sided")


def upcross_before_t0(model: LevyModel, x: float, b: float, q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < T_0^- ]."""
    if x > b:
        raise DomainError("upcross_before_t0 requires x <= b")
    if lam <= 0.0 or q < 0.0:
        raise DomainError("upcross_before_t0 requires lam > 0 and q >= 0")
    ctx = scale_context(model, q)
    ph = phi(model, q + lam)
    return clamp_unit(z(ctx, x, ph) / z(ctx, b, ph), "upcross_before_t0")


def delayed_w_functional(model: LevyModel, x: float, b: float, a: float, q: float,
                         lam: float, p: float, z_shift: float) -> float:
    """E_x[ e^{-q T_0^-} W_p(X_{T_0^-} + z) ; T_0^- < tau_b^+ ^ tau_{-a}^- ].

    The point p = q + lam is removable: the difference quotients in p become the
    closed-form p-derivatives of the second-generation scale function there.
    z > a is rejected: there the formula disagrees with its Monte Carlo
    counterpart ``T0_w_weight`` and can go negative.
    """
    if not (-a <= x <= b):
        raise DomainError("delayed_w_functional requires -a <= x <= b")
    if not 0.0 < z_shift <= a:
        raise DomainError("delayed_w_functional requires 0 < z <= a")
    if a < 0.0 or lam <= 0.0 or q < 0.0 or p < 0.0:
        raise DomainError("delayed_w_functional requires a, q >= 0, p >= 0, lam > 0")
    ctx = scale_context(model, q)
    ratio = script_w(ctx, lam, x, x + a) / script_w(ctx, lam, b, b + a)
    pole = q + lam
    if abs(p - pole) <= 1e-8 * (1.0 + pole):
        top = _script_w_dp(ctx, lam, b, b + z_shift)
        bot = _script_w_dp(ctx, lam, x, x + z_shift)
        return lam * (ratio * top - bot)
    top = script_w(ctx, p - q, b, b + z_shift) - script_w(ctx, lam, b, b + z_shift)
    bot = script_w(ctx, p - q, x, x + z_shift) - script_w(ctx, lam, x, x + z_shift)
    return lam / (p - pole) * (ratio * top - bot)
