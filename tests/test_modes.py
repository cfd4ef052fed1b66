"""The two-mode scale layer: overflow-free ratios, decaying parts and complements.

Every scale quantity is c_Phi e^{Phi_q x} + c_zeta e^{-zeta_q x} on x >= 0.  A
bounded quantity or a complement keeps only its decaying mode, and a ratio factors
out e^{Phi_q b}.  These tests check the results against a high-precision oracle
built from the definitions, check that each dropped growing coefficient cancels to
rounding, and check range and monotonicity out to levels of 1e4.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyruin import (
    DomainError,
    LevyModel,
    NumericalError,
    deficit_transform_erlang2,
    deficit_transform_t0,
    joint_lt_upcross,
    lt_occupation_exp_horizon,
    lt_occupation_inf,
    phi,
    ruin_prob_erlang_n,
    ruin_prob_sum_exp,
    scale_context,
    upcross_before_t0,
    upcross_before_t0_two_sided,
    up_cross_three_barrier,
)
from levyruin.models import BROWNIAN, _psi_prime_any, _psi_second_any, _psi_slopes
from levyruin.registry import IDENTITIES, evaluate_identity
from levyruin.scale import _z_sum, _z_tilde_sum

MODELS = {
    "bm_a": LevyModel.brownian(1.0, math.sqrt(2.0)),
    "bm_b": LevyModel.brownian(0.3, 1.0),
    "cl_a": LevyModel.cramer_lundberg(1.0, 1.0, 2.0),
    "cl_b": LevyModel.cramer_lundberg(1.5, 2.0, 1.6),
}
P, LAM, Q = 0.7, 1.3, 0.1


# ---------------------------------------------------------------------------
# high-precision oracle: Z_q from its definition at the exact roots
# ---------------------------------------------------------------------------


class Exact:
    """psi, its exact roots and Z_q(x, theta) = e^{theta x} (1 - psi_q(theta)
    int_0^x e^{-theta y} W_q(y) dy), with W_q the two-exponential sum of the
    residues of 1/psi_q, all at the working precision."""

    def __init__(self, model, q):
        mpf = mpmath.mpf
        self.model, self.q = model, mpf(q)
        if model.kind == BROWNIAN:
            mu, s2 = mpf(model.mu), mpf(model.sigma) ** 2
            self.psi = lambda t: mu * t + s2 * t * t / 2
            self.dpsi = lambda t: mu + s2 * t
        else:
            c, eta, alpha = mpf(model.c), mpf(model.eta), mpf(model.alpha)
            self.psi = lambda t: c * t - eta + alpha * eta / (t + alpha)
            self.dpsi = lambda t: c - alpha * eta / (t + alpha) ** 2
        self.roots = [self.root(q, sign) for sign in (1, -1)]

    def root(self, q, sign=1):
        # roots of the quadratic numerator of psi - q (Phi_q for sign = 1)
        mpf, model = mpmath.mpf, self.model
        q = mpf(q)
        if model.kind == BROWNIAN:
            lead, lin, const = mpf(model.sigma) ** 2 / 2, mpf(model.mu), -q
        else:
            c, alpha = mpf(model.c), mpf(model.alpha)
            lead, lin, const = c, c * alpha - model.eta - q, -q * alpha
        return (-lin + sign * mpmath.sqrt(lin * lin - 4 * lead * const)) / (2 * lead)

    def z(self, x, theta):
        x, theta = mpmath.mpf(x), mpmath.mpf(theta)
        integral = sum((mpmath.exp((r - theta) * x) - 1) / (self.dpsi(r) * (r - theta))
                       for r in self.roots)
        return mpmath.exp(theta * x) * (1 - (self.psi(theta) - self.q) * integral)

    def z_tilde(self, x, a, b):
        psi_q = lambda t: self.psi(t) - self.q  # noqa: E731
        if a == b:
            return (self.dpsi(a) * self.z(x, a)
                    - psi_q(a) * mpmath.diff(lambda t: self.z(x, t), a))
        return (psi_q(a) * self.z(x, b) - psi_q(b) * self.z(x, a)) / (a - b)


def digits(model, level):
    # enough digits for the e^{theta x} terms of the definition, theta up to
    # Phi_{q + max(p, lam)}, to cancel at level
    return 60 + int(1.2 * phi(model, Q + max(P, LAM)) * level / math.log(10.0))


def mp_occupation_inf(model, x, p, lam):
    # inputs as exact mpf values: rounding a float sum or product such as q + lam
    # would leave a growing mode of relative size 1e-17 uncancelled
    x, p, lam = map(mpmath.mpf, (x, p, lam))
    ex = Exact(model, 0)
    phl, php = ex.root(lam), ex.root(p)
    return ex.dpsi(0) * php * phl / (lam * p) * ex.z_tilde(x, phl, php)


def mp_exp_horizon(model, x, p, q, lam):
    x, p, q, lam = map(mpmath.mpf, (x, p, q, lam))
    ex = Exact(model, q)
    phq, phl, php = ex.roots[0], ex.root(q + lam), ex.root(q + p)
    combined = (p * (lam * ex.z(x, 0) + q * ex.z(x, phl))
                - q * phl * (php - phq) / phq * ex.z_tilde(x, phl, php))
    return 1 - combined / ((lam + q) * (p + q))


def mp_deficit_t0(model, x, lam):
    x, lam = map(mpmath.mpf, (x, lam))
    ex = Exact(model, 0)
    ph = ex.root(lam)
    return (ex.z_tilde(x, ph, ph) - lam * ex.z(x, ph) / ph) / ex.dpsi(ph)


def mp_deficit_erlang2(model, x, lam):
    x, lam = map(mpmath.mpf, (x, lam))
    ex = Exact(model, 0)
    ph = ex.root(lam)
    psip = ex.dpsi(ph)
    psis = mpmath.diff(ex.dpsi, ph)
    bracket = (lam * mpmath.diff(lambda t: ex.z(x, t), ph, 2) - psis * ex.z(x, ph)
               - (2 / ph - 2 * psip / lam) * ex.z_tilde(x, ph, ph))
    return lam * bracket / (2 * psip * psip)


def mp_ruin_erlang_n(model, x, lam, n):
    x, lam = map(mpmath.mpf, (x, lam))
    ex = Exact(model, 0)
    ph = ex.root(lam)
    surv_x, surv_0 = (ex.dpsi(0) * ph / lam * ex.z(y, ph) for y in (x, 0))
    for t in (mp_deficit_t0, mp_deficit_erlang2)[:n - 1]:
        t_x, t_0 = t(model, x, lam), t(model, 0, lam)
        surv_x, surv_0 = surv_x + surv_0 * t_x / (1 - t_0), surv_0 / (1 - t_0)
    return 1 - surv_x


def mp_joint_lt_upcross(model, x, b, q, p, lam):
    x, b, q, p, lam = map(mpmath.mpf, (x, b, q, p, lam))
    ex = Exact(model, q)
    phl, php = ex.root(q + lam), ex.root(q + p)
    return ex.z_tilde(x, phl, php) / ex.z_tilde(b, phl, php)


def assert_matches(got, exact):
    # 1e-10 relative wherever the exact value is above 1e-300
    exact = mpmath.mpf(exact)
    if exact > mpmath.mpf("1e-300"):
        assert abs(got - exact) <= mpmath.mpf("1e-10") * exact, (got, exact)


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("x", [10.0, 40.0, 100.0])
def test_complements_and_decaying_parts_match_mpmath(key, x):
    model = MODELS[key]
    with mpmath.workdps(digits(model, x)):
        occ = mp_occupation_inf(model, x, P, LAM)
        assert_matches(lt_occupation_inf(model, x, P, LAM), occ)
        assert_matches(ruin_prob_sum_exp(model, x, P, LAM), 1 - occ)
        assert_matches(lt_occupation_exp_horizon(model, x, P, Q, LAM),
                       mp_exp_horizon(model, x, P, Q, LAM))
        assert_matches(deficit_transform_t0(model, x, LAM), mp_deficit_t0(model, x, LAM))
        assert_matches(deficit_transform_erlang2(model, x, LAM),
                       mp_deficit_erlang2(model, x, LAM))
        for n in (1, 2, 3):
            assert_matches(ruin_prob_erlang_n(model, x, LAM, n).value,
                           mp_ruin_erlang_n(model, x, LAM, n))


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("x, b", [(10.0, 100.0), (100.0, 1e3), (10.0, 1e4), (100.0, 1e4)])
def test_joint_lt_upcross_matches_mpmath_at_large_b(key, x, b):
    model = MODELS[key]
    for q in (1e-3, Q):
        with mpmath.workdps(digits(model, b)):
            assert_matches(joint_lt_upcross(model, x, b, q, P, LAM),
                           mp_joint_lt_upcross(model, x, b, q, P, LAM))


def test_ruin_prob_sum_exp_far_tail():
    # 1 - E[e^{-p O}] rounds to 0 here; the decaying part of the transform does not
    model = MODELS["cl_a"]
    with mpmath.workdps(digits(model, 40.0)):
        exact = 1 - mp_occupation_inf(model, 40.0, P, LAM)
    assert float(exact) == pytest.approx(6.9276e-19, rel=1e-4)
    assert_matches(ruin_prob_sum_exp(model, 40.0, P, LAM), exact)


# ---------------------------------------------------------------------------
# each dropped growing coefficient cancels to rounding
# ---------------------------------------------------------------------------


def _cancels(terms):
    # (weight, coefficient) pairs whose weighted growing coefficients sum to 0
    total = math.fsum(wt * c for wt, c in terms)
    assert abs(total) <= 1e-13 * sum(abs(wt * c) for wt, c in terms), terms


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("lam", [0.05, 1.3, 30.0])
def test_dropped_growing_modes_cancel(key, lam):
    model = MODELS[key]
    ctx0 = scale_context(model, 0.0)
    assert ctx0.phi_q == 0.0  # e^{Phi_0 x} = 1 is the constant the complements remove
    ph, php = phi(model, lam), phi(model, P)
    # ruin_prob_sum_exp: k Z~_0(., Phi_lam, Phi_p) has growing coefficient 1
    k = model.mean() * (php / P) * (ph / lam)
    _cancels([(k, _z_tilde_sum(ctx0, ph, php)[0]), (-1.0, 1.0)])
    # ruin_prob_erlang_n: the one-stage survival mean (Phi_lam / lam) Z_0(., Phi_lam)
    _cancels([(model.mean() * ph / lam, _z_sum(ctx0, ph)[0]), (-1.0, 1.0)])
    # deficit_transform_t0: Z~_0(., Phi_lam, Phi_lam) - lam / Phi_lam Z_0(., Phi_lam)
    _cancels([(1.0, _z_tilde_sum(ctx0, ph, ph)[0]),
              (-lam / ph, _z_sum(ctx0, ph)[0])])
    # deficit_transform_erlang2 (gs_lt_infinite_e2_confluent at q = 0)
    psip = _psi_prime_any(model, ph)
    _cancels([(lam, _z_sum(ctx0, ph, 2)[0]),
              (-_psi_second_any(model, ph), _z_sum(ctx0, ph)[0]),
              (-(2.0 / ph - 2.0 * psip / lam), _z_tilde_sum(ctx0, ph, ph)[0])])
    # lt_occupation_exp_horizon at q > 0
    ctx = scale_context(model, Q)
    phq, phl, php = ctx.phi_q, phi(model, Q + lam), phi(model, Q + P)
    slope_0, slope_p = _psi_slopes(model, phq, 0.0, php)
    k = phl * P * slope_0 / slope_p
    _cancels([(P * lam, _z_sum(ctx, 0.0)[0]), (P * Q, _z_sum(ctx, phl)[0]),
              (-k, _z_tilde_sum(ctx, phl, php)[0])])


# ---------------------------------------------------------------------------
# range and monotonicity out to levels of 1e4
# ---------------------------------------------------------------------------

LEVEL = st.floats(min_value=0.0, max_value=1e4)
RATE = st.floats(min_value=0.05, max_value=3.0)
SLACK = 1e-12


def _in_unit(v):
    return math.isfinite(v) and 0.0 <= v <= 1.0


@pytest.mark.parametrize("key", ["bm_a", "cl_a"])
@settings(max_examples=40, deadline=None)
@given(x1=LEVEL, x2=LEVEL, p=RATE, lam=RATE)
def test_occupation_and_ruin_bounded_and_monotone_in_x(key, x1, x2, p, lam):
    model = MODELS[key]
    lo, hi = sorted((x1, x2))
    for f, increasing in ((lambda x: lt_occupation_inf(model, x, p, lam), True),
                          (lambda x: lt_occupation_exp_horizon(model, x, p, Q, lam), True),
                          (lambda x: ruin_prob_sum_exp(model, x, p, lam), False),
                          (lambda x: ruin_prob_erlang_n(model, x, lam, 3).value, False)):
        v_lo, v_hi = f(lo), f(hi)
        assert _in_unit(v_lo) and _in_unit(v_hi)
        if increasing:
            assert v_hi >= v_lo - SLACK
        else:
            assert v_hi <= v_lo + SLACK * max(v_lo, 1e-300) + 1e-300


@pytest.mark.parametrize("key", ["bm_a", "cl_a"])
@settings(max_examples=40, deadline=None)
@given(levels=st.lists(LEVEL, min_size=3, max_size=3), q=st.floats(0.0, 2.0),
       p=RATE, lam=RATE)
def test_upcrossing_transforms_bounded_and_monotone(key, levels, q, p, lam):
    # increasing in the start x, decreasing in the barrier b
    model = MODELS[key]
    x, m, b = sorted(levels)
    a = 1.0
    for f in (lambda x, b: joint_lt_upcross(model, x, b, q, p, lam),
              lambda x, b: upcross_before_t0(model, x, b, q, lam),
              lambda x, b: upcross_before_t0_two_sided(model, x, b, a, q, lam),
              lambda x, b: up_cross_three_barrier(model, x, b, a, q, p, lam)):
        low_start, mid_start, far_barrier = f(x, m), f(m, m), f(x, b)
        assert all(_in_unit(v) for v in (low_start, mid_start, far_barrier))
        assert mid_start >= low_start - SLACK
        assert far_barrier <= low_start + SLACK


# ---------------------------------------------------------------------------
# huge rates give a finite value in range or a typed error, never nan
# ---------------------------------------------------------------------------

PROBABILITIES = {"ruin_prob_sum_exp", "ruin_prob_erlang2", "ruin_prob_erlang_n",
                 "joint_lt_upcross", "lt_occupation_inf", "up_cross_three_barrier",
                 "up_cross_before_ruin", "lt_occupation_exp_horizon", "up_cross_e2",
                 "upcross_before_T0_two_sided", "upcross_before_T0"}
BASE = {"x": 0.5, "b": 2.0, "a": 1.0, "q": 0.1, "p": 0.7, "lam": 1.3, "theta": 0.5,
        "y": -0.5, "z": 0.5, "r": 1.0, "n": 3}


@pytest.mark.parametrize("key", MODELS)
def test_huge_rates_finite_or_typed_error(key):
    model = MODELS[key]
    for name, ident in sorted(IDENTITIES.items()):
        names = [prm.name for prm in ident.params]
        for axis in ("q", "p", "lam"):
            if axis not in names:
                continue
            for e in range(20, 301, 20):
                params = {k: BASE[k] for k in names}
                params[axis] = 10.0 ** e
                try:
                    value = float(evaluate_identity(name, model, params)[0])
                except (DomainError, NumericalError, ArithmeticError):
                    continue
                where = (name, axis, e, value)
                assert math.isfinite(value) and value >= 0.0, where
                assert value <= 1.0 or name not in PROBABILITIES, where
