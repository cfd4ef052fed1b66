"""Closed-form roots of psi(theta) = q against independent oracles, and the
decaying-mode form of gs_lt_infinite against a high-precision evaluation of the
full two-mode identity."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from levyruin import LevyModel, phi
from levyruin.models import BROWNIAN, _phi_zeta, _psi_any, _psi_prime_any
from levyruin.parisian import gs_lt_infinite, gs_lt_infinite_e2
from levyruin.scale import scale_context

MODELS = {
    "bm_a": LevyModel.brownian(1.0, math.sqrt(2.0)),
    "bm_b": LevyModel.brownian(0.3, 1.0),
    "cl_a": LevyModel.cramer_lundberg(1.0, 1.0, 2.0),
    "cl_b": LevyModel.cramer_lundberg(1.5, 2.0, 1.6),
    "bm_neg": LevyModel.brownian(-0.5, 1.2),
    "cl_neg": LevyModel.cramer_lundberg(1.0, 3.0, 2.0),
}

# q log-uniform over [1e-300, 1e4], plus both ends
Q_GRID = sorted(
    [1e-300, 1e4] + list(10.0 ** np.random.default_rng(6).uniform(-300.0, 4.0, 60))
)


def mp_roots(model, q, dps=700):
    # (Phi_q, zeta_q) by the textbook quadratic formula; at 700 digits the cancellation
    # of its minus-sign root at q >= 1e-300 still leaves more than 50 correct digits
    with mpmath.workdps(dps):
        q = mpmath.mpf(q)
        if model.kind == BROWNIAN:
            lead, lin, const = mpmath.mpf(model.sigma) ** 2 / 2, mpmath.mpf(model.mu), -q
        else:
            c, alpha = mpmath.mpf(model.c), mpmath.mpf(model.alpha)
            lead, lin, const = c, c * alpha - model.eta - q, -q * alpha
        disc = mpmath.sqrt(lin * lin - 4 * lead * const)
        return (-lin + disc) / (2 * lead), (lin + disc) / (2 * lead)


def phi_bracketed(model, q):
    # generic bracketed search on psi(theta) - q with a Newton polish: independent
    # of the quadratic, but it cancels near theta = 0 (about eps * eta / q relative)
    def f(th):
        return _psi_any(model, th) - q

    lo, hi = (0.0 if q > 0.0 else 1e-12), 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    root = brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    for _ in range(2):
        root -= f(root) / _psi_prime_any(model, root)
    return root


def rel(got, exact):
    return abs(mpmath.mpf(got) - exact) / abs(exact)


@pytest.mark.parametrize("key", MODELS)
def test_roots_match_mpmath(key):
    model = MODELS[key]
    worst = 0.0
    for q in Q_GRID:
        exact_phi, exact_zeta = mp_roots(model, q)
        phi_q, zeta_q = _phi_zeta(model, q)
        assert phi(model, q) == phi_q
        ctx = scale_context(model, q)
        assert (ctx.phi_q, ctx.zeta_q) == (phi_q, zeta_q)
        worst = max(worst, rel(phi_q, exact_phi), rel(zeta_q, exact_zeta))
    assert worst <= 2e-15


@pytest.mark.parametrize("key", MODELS)
def test_roots_at_q_zero(key):
    model = MODELS[key]
    phi_0, zeta_0 = _phi_zeta(model, 0.0)
    exact_phi, exact_zeta = mp_roots(model, 0.0)
    if model.mean() > 0.0:
        assert phi_0 == 0.0 and rel(zeta_0, exact_zeta) <= 2e-15
    else:
        assert zeta_0 == 0.0 and rel(phi_0, exact_phi) <= 2e-15


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("q", [1e200, 1e300, sys.float_info.max])
def test_roots_finite_at_huge_q(key, q):
    model = MODELS[key]
    phi_q, zeta_q = _phi_zeta(model, q)
    assert math.isfinite(phi_q) and math.isfinite(zeta_q)
    exact_phi, exact_zeta = mp_roots(model, q)
    assert rel(phi_q, exact_phi) <= 2e-15
    assert rel(zeta_q, exact_zeta) <= 2e-15


@pytest.mark.parametrize("key", MODELS)
@settings(max_examples=50, deadline=None)
@given(log_q=st.floats(min_value=-12.0, max_value=4.0))
def test_residues_match_partial_fractions(key, log_q):
    # 1/psi_q(s) = sum over the roots r of psi = q of (1/psi'(r)) / (s - r) for a
    # rational Laplace exponent (Kuznetsov, Kyprianou & Rivero 2012), at three
    # points right of Phi_q
    model = MODELS[key]
    q = 10.0 ** log_q
    ctx = scale_context(model, q)
    p, zeta, a, b = ctx.phi_q, ctx.zeta_q, ctx.coeff_a, ctx.coeff_b
    for s in (p + 0.7, p + 1.9, p + 5.3):
        lhs = a / (s - p) + b / (s + zeta)
        rhs = 1.0 / (_psi_any(model, s) - q)
        assert abs(lhs - rhs) <= 1e-9 * (abs(rhs) + 1.0)


@pytest.mark.parametrize("key", ["cl_a", "cl_b", "bm_a", "bm_neg"])
def test_scale_context_finite_at_huge_q(key):
    # past q ~ 1e17 zeta_q rounds to alpha on cl_a, the pole of psi'(-zeta_q), and
    # past q ~ 1e154 (Phi_q + alpha)^2 overflows
    model = MODELS[key]
    for q in (0.0, 1e16, 1e17, 1e154, 1e155, 1e200, sys.float_info.max):
        ctx = scale_context(model, q)
        fields = (ctx.phi_q, ctx.zeta_q, ctx.coeff_a, ctx.coeff_b, ctx.w0)
        assert all(math.isfinite(v) for v in fields), (q, fields)


@pytest.mark.parametrize("key", MODELS)
def test_roots_match_bracketed_search(key):
    model = MODELS[key]
    for q in np.geomspace(1e-2, 1e4, 25):
        assert phi(model, q) == pytest.approx(phi_bracketed(model, q), rel=1e-12)
    if model.mean() < 0.0:
        assert phi(model, 0.0) == pytest.approx(phi_bracketed(model, 0.0), rel=1e-12)


def test_zero_drift_double_root():
    assert _phi_zeta(LevyModel.brownian(0.0, 1.0), 0.0) == (0.0, 0.0)
    assert _phi_zeta(LevyModel.cramer_lundberg(1.0, 2.0, 2.0), 0.0) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# gs_lt_infinite: only the decaying mode survives for x >= 0
# ---------------------------------------------------------------------------


def mp_gs_lt_infinite(model, x, q, p, lam, theta):
    # the full two-mode identity at the exact roots, with enough digits that the
    # cancelling e^{Phi_q x} terms leave 50 correct digits
    phi_q, zeta = mp_roots(model, q)
    dps = 60 + int(float(phi_q + zeta) * x / math.log(10.0))
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        q, p, lam, theta, x = mpf(q), mpf(p), mpf(lam), mpf(theta), mpf(x)
        phi_q, zeta = mp_roots(model, q, dps + 20)
        phi_l = mp_roots(model, q + lam, dps + 20)[0]
        phi_p = mp_roots(model, q + p, dps + 20)[0]
        if model.kind == BROWNIAN:
            mu, s2 = mpf(model.mu), mpf(model.sigma) ** 2

            def psi(th):
                return mu * th + s2 * th * th / 2

            def dpsi(th):
                return mu + s2 * th

            def rho(th):
                return s2 / 2

            def drho(th):
                return mpf(0)
        else:
            c, eta, alpha = mpf(model.c), mpf(model.eta), mpf(model.alpha)

            def psi(th):
                return c * th - eta + alpha * eta / (th + alpha)

            def dpsi(th):
                return c - alpha * eta / (th + alpha) ** 2

            def rho(th):
                return c / (th + alpha)

            def drho(th):
                return -c / (th + alpha) ** 2

        a_coef, b_coef = 1 / dpsi(phi_q), 1 / dpsi(-zeta)
        ea, eb = mpmath.exp(phi_q * x), mpmath.exp(-zeta * x)

        def z(th):
            return rho(th) * (a_coef * (th + zeta) * ea + b_coef * (th - phi_q) * eb)

        def z_dth(th):
            return (drho(th) * (a_coef * (th + zeta) * ea + b_coef * (th - phi_q) * eb)
                    + rho(th) * (a_coef * ea + b_coef * eb))

        def psi_q(th):
            return psi(th) - q

        if phi_l == phi_p:
            z_tilde = dpsi(phi_l) * z(phi_l) - psi_q(phi_l) * z_dth(phi_l)
        else:
            z_tilde = (psi_q(phi_l) * z(phi_p) - psi_q(phi_p) * z(phi_l)) / (phi_l - phi_p)
        e_script = lam * z(theta) - psi_q(theta) * z(phi_l)
        coeff = psi_q(theta) / (theta - phi_q) * (phi_l - theta) * (phi_p - phi_q) / p
        pref = p / ((psi_q(theta) - lam) * (psi_q(theta) - p))
        return pref * (e_script - coeff * z_tilde)


@pytest.mark.parametrize("key", ["cl_a", "cl_b", "bm_a", "bm_neg"])
@pytest.mark.parametrize("x", [13.0, 20.0, 40.0, 100.0])
def test_gs_lt_infinite_matches_mpmath_at_large_x(key, x):
    model = MODELS[key]
    q, p, lam, theta = 0.1, 0.7, 1.3, 0.5
    got = gs_lt_infinite(model, x, q, p, lam, theta)
    assert rel(got, mp_gs_lt_infinite(model, x, q, p, lam, theta)) <= 1e-10
    got_e2 = gs_lt_infinite_e2(model, x, q, lam, theta)
    assert rel(got_e2, mp_gs_lt_infinite(model, x, q, lam, lam, theta)) <= 1e-10


@pytest.mark.parametrize("key", MODELS)
def test_gs_lt_infinite_bounded_and_decreasing(key):
    model = MODELS[key]
    xs = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 60)])
    for q, p, lam, theta in [(0.1, 0.7, 1.3, 0.5), (0.5, 1.0, 1.0, 0.0), (0.0, 2.0, 0.4, 1.1)]:
        if q == 0.0 and model.mean() <= 0.0:
            continue
        vals = [gs_lt_infinite(model, x, q, p, lam, theta) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(later <= earlier for earlier, later in zip(vals, vals[1:]))
