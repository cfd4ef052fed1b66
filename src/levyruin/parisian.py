"""Parisian ruin with exponential-sum, Erlang(2) and Erlang(n) implementation delays.

Every identity is closed-form in the two-mode scale quantities of
:mod:`levyruin.scale`: ratios and two-sided combinations factor out e^{Phi_q b},
and bounded quantities and ruin probabilities keep their decaying mode.
Removable singularities (p = lam, theta at Phi_q or Phi_{q+lam}) go through
confluent branches or analytic limits, never naive evaluation next to the pole.
The Erlang(2, lam) identities are the p = lam case of their Exp(p) + Exp(lam)
parents, whose confluences take closed-form p-derivatives of scriptW.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import DomainError, NumericalError
from .models import LevyModel, _psi_any, _psi_prime_any, _psi_second_any, _psi_slopes, phi
from .occupation import _occupation_inf, joint_lt_upcross
from .scale import (
    _at,
    _decay,
    _lin,
    _neg,
    _ratio,
    _roots,
    _script_w_sum,
    _two_sided,
    _w_at,
    _w_tilde_sum,
    _w_dq,
    _z_sum,
    _z_tilde_sum,
    scale_context,
    w,
    z_tilde,
)
from .util import clamp_unit

_POLE_TOL = 1e-12
_DENSITY_CLAMP = 1e-9
_ONE = (1.0, 0.0, lambda y: 1.0, ())  # at q = 0, where Phi_0 = 0: the mode e^{Phi_0 x}


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
    ctx0, k, phl, php = _occupation_inf(model, p, lam)
    ruin = _decay(ctx0, _lin(1.0, _ONE, -k, _z_tilde_sum(ctx0, phl, php)), x)
    return clamp_unit(ruin, "ruin_prob_sum_exp")


def gs_lt_two_sided(model: LevyModel, x: float, b: float, q: float, p: float,
                    lam: float, theta: float) -> float:
    """E_x[ e^{-q rho + theta X_rho} ; rho < tau_b^+ ] for the Exp(p)+Exp(lam) delay."""
    if x > b:
        raise DomainError("gs_lt_two_sided requires x <= b")
    if p <= 0.0 or lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("gs_lt_two_sided requires p > 0, lam > 0, q >= 0, theta >= 0")
    ctx = scale_context(model, q)
    phi_lq, phi_pq = phi(model, q + lam), phi(model, q + p)
    _check_pole(theta, phi_lq, "Phi_{q+lam}")
    _check_pole(theta, phi_pq, "Phi_{q+p}")
    val = _two_sided(ctx, _e_script(ctx, lam, theta), _z_tilde_sum(ctx, phi_lq, phi_pq), x, b)
    return p / (_psi_q(model, q + lam, theta) * _psi_q(model, q + p, theta)) * val


def gs_lt_infinite(model: LevyModel, x: float, q: float, p: float, lam: float,
                   theta: float) -> float:
    """E_x[ e^{-q rho + theta X_rho} ; rho < inf ] for the Exp(p)+Exp(lam) delay.

    psi_q(theta)/(theta - Phi_q) is the slope of psi between Phi_q and theta, regular
    at theta = Phi_q (so q = 0, theta = 0 under positive drift).  For x >= 0 the value
    lies in [0, 1], so only the decaying mode is kept, as a factored product of
    slopes that does not cancel next to theta = Phi_{q+lam}.
    """
    if p <= 0.0 or lam <= 0.0 or q < 0.0 or theta < 0.0:
        raise DomainError("gs_lt_infinite requires p > 0, lam > 0, q >= 0, theta >= 0")
    if q == 0.0:
        model.require_positive_drift("gs_lt_infinite with q = 0")
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
    (_, _), (r, res) = _roots(ctx)
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
    if abs(p - lam) > 1e-8 * (1.0 + lam):
        f = _w_tilde_sum(ctx, p, lam, a)
    else:
        # d/dp of w_tilde at p = lam
        ctx_l = scale_context(model, q + lam)
        w_l = w(ctx_l, a)
        f = _lin(lam * w_l, _script_w_sum(ctx, lam, a, dp=True),
                 -(w_l + lam * _w_dq(ctx_l, a)), _script_w_sum(ctx, lam, a))
    return clamp_unit(_ratio(ctx, f, x, b), "up_cross_three_barrier")


def up_cross_before_ruin(model: LevyModel, x: float, b: float, q: float, p: float,
                         lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < rho ]: it coincides with
    :func:`levyruin.occupation.joint_lt_upcross`."""
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
    phi_lq, phi_pq = phi(model, q + lam), phi(model, q + p)
    w_l = w(scale_context(model, q + lam), -y)
    zl, zt = _z_sum(ctx, phi_lq), _z_tilde_sum(ctx, phi_lq, phi_pq)
    # the xi-dependent factor conv - bracket Z_q(xi, Phi_{q+lam}), and the magnitude
    # of its cancelling terms
    if p == lam:
        w_dq = lam * _w_dq(scale_context(model, q + lam), -y)
        bracket, bracket_mag = w_l + w_dq, w_l + abs(w_dq)
        conv = _script_w_sum(ctx, lam, -y, dp=True)
        e = _lin(lam, conv, -bracket, zl)
        mag = _lin(lam, _abs(conv), bracket_mag, _abs(zl))
    else:
        w_p = w(scale_context(model, q + p), -y)
        bracket = (lam * w_l - p * w_p) / (lam - p)
        bracket_mag = (lam * w_l + p * w_p) / abs(lam - p)
        sl, sp, c = _script_w_sum(ctx, lam, -y), _script_w_sum(ctx, p, -y), lam / (lam - p)
        e = _lin(1.0, _lin(c, sl, -c, sp), -bracket, zl)
        mag = _lin(1.0, _lin(abs(c), _abs(sl), abs(c), _abs(sp)), bracket_mag, _abs(zl))
    val = p * _two_sided(ctx, e, zt, x, b)
    return _floor_density(val, 1e-11 * p * _cancelling(ctx, mag, zt, x, b) + 1e-10,
                          "Gerber-Shiu density")


def _cancelling(ctx, mag: tuple, f: tuple, x: float, b: float) -> float:
    # the size of the terms that cancel in _two_sided(ctx, g, f, x, b), where mag bounds
    # g's terms; below its rounding floor the sign and size of the value are
    # meaningless.  On x >= 0 those are the modes and their determinant, whose
    # magnitudes combine alike
    if x >= 0.0:
        return _two_sided(ctx, mag, (abs(f[0]), -abs(f[1]), None, ()), x, b)
    s = max(b, 0.0)
    return _neg(mag, x) + abs(_neg(f, x)) * _at(ctx, mag, b, s) / _at(ctx, f, b, s)


def _abs(f: tuple) -> tuple:
    return abs(f[0]), abs(f[1]), _abs_neg, (f,)


def _abs_neg(y: float, f: tuple) -> float:
    return abs(_neg(f, y))


def lt_occupation_exp_horizon(model: LevyModel, x: float, p: float, q: float,
                              lam: float) -> float:
    """E_x[ e^{-p O_{e_q, lam}} ]: occupation up to an independent Exp(q) horizon.

    Valid for any drift (the exponential horizon keeps everything finite).  The
    value is 1 minus a scale combination that is bounded in x, so for x >= 0 only
    the combination's decaying mode is kept.
    """
    if q <= 0.0:
        raise DomainError("lt_occupation_exp_horizon requires q > 0")
    if lam <= 0.0 or p < 0.0:
        raise DomainError("lt_occupation_exp_horizon requires lam > 0 and p >= 0")
    if p == 0.0:
        return 1.0
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


def gs_lt_infinite_e2_confluent(model: LevyModel, x: float, q: float, lam: float) -> float:
    """theta -> Phi_{q+lam} limit of :func:`gs_lt_infinite_e2` (a double pole with a
    double zero; second-order expansion): E_x[ e^{-q rho^{(2)} + Phi_{q+lam} X} ;
    rho^{(2)} < inf ], which the Erlang recursion needs."""
    if lam <= 0.0 or q < 0.0:
        raise DomainError("gs_lt_infinite_e2_confluent requires lam > 0 and q >= 0")
    if q == 0.0:
        model.require_positive_drift("gs_lt_infinite_e2_confluent with q = 0")
    ctx = scale_context(model, q)
    return _decay(ctx, _e2_confluent_sum(ctx, lam), x)


def _e2_confluent_sum(ctx, lam: float) -> tuple:
    # gs_lt_infinite_e2_confluent, a transform bounded in x: the growing modes cancel
    model = ctx.model
    ph = phi(model, ctx.q + lam)
    psip = _psi_prime_any(model, ph)
    u = lam / (2.0 * psip * psip)
    z2 = _lin(lam, _z_sum(ctx, ph, 2), -_psi_second_any(model, ph), _z_sum(ctx, ph))
    return _lin(u, z2, -u * (2.0 / (ph - ctx.phi_q) - 2.0 * psip / lam), _z_tilde_sum(ctx, ph, ph))


def gs_density_e2(model: LevyModel, x: float, b: float, q: float, lam: float,
                  y: float) -> float:
    """Gerber-Shiu density at Erlang(2, lam) Parisian ruin: the p = lam limit of
    :func:`gerber_shiu_density`, in closed form."""
    return _gs_density(model, x, b, q, lam, lam, y, "gs_density_e2")


# ---------------------------------------------------------------------------
# Erlang(n) recursion and the fixed-delay approximation
# ---------------------------------------------------------------------------


def deficit_transform_t0(model: LevyModel, x: float, lam: float) -> float:
    """E_x[ e^{Phi_lam X_{T_0^-}} ; T_0^- < inf ]: the b -> inf, theta -> Phi_lam limit
    of the joint transform at the first Poisson observation below 0, which feeds
    the n = 2 step of the Erlang recursion."""
    model.require_positive_drift("deficit_transform_t0")
    ctx0 = scale_context(model, 0.0)
    return _decay(ctx0, _deficit_t0_sum(ctx0, lam), x)


def _deficit_t0_sum(ctx0, lam: float) -> tuple:
    # deficit_transform_t0; it vanishes as x -> inf, so the Phi_0 = 0 modes cancel
    ph = phi(ctx0.model, lam)
    u = 1.0 / _psi_prime_any(ctx0.model, ph)
    return _lin(u, _z_tilde_sum(ctx0, ph, ph), -u * lam / ph, _z_sum(ctx0, ph))


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
    k_surv = model.mean() * (ph / lam)  # survival with one stage is k_surv Z_0(x, Phi_lam)
    surv = _z_sum(ctx0, ph)
    surv_0 = clamp_unit(k_surv * _at(ctx0, surv, 0.0), "Erlang survival")
    # the Phi_0 = 0 mode of every stage's survival is exactly 1, so ruin is minus its
    # decaying part; the deficit transforms decay in x
    ruin_x = clamp_unit(_decay(ctx0, _lin(1.0, _ONE, -k_surv, surv), x), "Erlang ruin")
    # the closed-form deficit transforms of the first two stages, built once
    closed = [build(ctx0, lam) for build in (_deficit_t0_sum, _e2_confluent_sum)[:n - 1]]
    mc_transforms = []

    def transform(k: int, start: float) -> float:
        if k <= 2:
            return _decay(ctx0, closed[k - 1], start)
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
        ruin_x = ruin_x - surv_0 * t_x / (1.0 - t_0)
        surv_0 = surv_0 / (1.0 - t_0)
    value = clamp_unit(ruin_x, "ruin_prob_erlang_n")
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
    return (lam / denom) * _two_sided(ctx, _z_sum(ctx, theta), _z_sum(ctx, ph), x, b)


def upcross_before_t0_two_sided(model: LevyModel, x: float, b: float, a: float,
                                q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < T_0^- ^ tau_{-a}^- ]."""
    if not (-a <= x <= b):
        raise DomainError("upcross_before_t0_two_sided requires -a <= x <= b")
    if a < 0.0 or lam <= 0.0 or q < 0.0:
        raise DomainError("upcross_before_t0_two_sided requires a >= 0, lam > 0, q >= 0")
    ctx = scale_context(model, q)
    return clamp_unit(_ratio(ctx, _script_w_sum(ctx, lam, a), x, b),
                      "upcross_before_t0_two_sided")


def upcross_before_t0(model: LevyModel, x: float, b: float, q: float, lam: float) -> float:
    """E_x[ e^{-q tau_b^+} ; tau_b^+ < T_0^- ]."""
    if x > b:
        raise DomainError("upcross_before_t0 requires x <= b")
    if lam <= 0.0 or q < 0.0:
        raise DomainError("upcross_before_t0 requires lam > 0 and q >= 0")
    ctx = scale_context(model, q)
    ph = phi(model, q + lam)
    return clamp_unit(_ratio(ctx, _z_sum(ctx, ph), x, b), "upcross_before_t0")


def delayed_w_functional(model: LevyModel, x: float, b: float, a: float, q: float,
                         lam: float, p: float, z_shift: float) -> float:
    """E_x[ e^{-q T_0^-} W_p(X_{T_0^-} + z) ; T_0^- < tau_b^+ ^ tau_{-a}^- ].

    The point p = q + lam is removable: the difference quotients in p become the
    closed-form p-derivatives of the second-generation scale function there.
    z > a is rejected: there the formula disagrees with its Monte Carlo
    counterpart ``T0_w_weight`` and can go negative.  A value below the rounding
    floor of its cancelling terms (at large q) raises :class:`NumericalError`.
    """
    if not (-a <= x <= b):
        raise DomainError("delayed_w_functional requires -a <= x <= b")
    if not 0.0 < z_shift <= a:
        raise DomainError("delayed_w_functional requires 0 < z <= a")
    if a < 0.0 or lam <= 0.0 or q < 0.0 or p < 0.0:
        raise DomainError("delayed_w_functional requires a, q >= 0, p >= 0, lam > 0")
    ctx = scale_context(model, q)
    pole = q + lam
    # lam / (p - pole) (f(x) g(b) / f(b) - g(x)) with f = script_w(ctx, lam, ., . + a)
    # and g the difference quotient in p at length z, or its p-derivative at the pole
    if abs(p - pole) <= 1e-8 * (1.0 + pole):
        k, g = -lam, _script_w_sum(ctx, lam, z_shift, dp=True)
        mag = _abs(g)
    else:
        k = -lam / (p - pole)
        g_p, g_l = _script_w_sum(ctx, p - q, z_shift), _script_w_sum(ctx, lam, z_shift)
        g, mag = _lin(1.0, g_p, -1.0, g_l), _lin(1.0, _abs(g_p), 1.0, _abs(g_l))
    f = _script_w_sum(ctx, lam, a)
    val = k * _two_sided(ctx, g, f, x, b)
    if 1e-11 * abs(k) * _cancelling(ctx, mag, f, x, b) > abs(val):
        raise NumericalError("delayed_W_functional is below the rounding floor of its "
                             f"cancelling terms: {val!r}")
    return val
