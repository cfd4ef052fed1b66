import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from levyruin import (
    DomainError,
    LevyModel,
    gamma_lambda,
    joint_lt_upcross,
    lambda_prime,
    lt_occupation_inf,
    occupation_law,
    phi,
    psi_prime,
    scale_context,
    transition,
    w,
    z,
)
from levyruin.occupation import _gamma_comp


def test_joint_lt_trivial_at_b(model):
    assert joint_lt_upcross(model, 1.0, 1.0, 0.3, 2.0, 1.0) == 1.0


def test_joint_lt_rejects_x_above_b(model):
    with pytest.raises(DomainError):
        joint_lt_upcross(model, 2.0, 1.0, 0.0, 1.0, 1.0)


def test_joint_lt_p_zero_recovers_one_sided_exit(model):
    # with p = 0 the transform collapses to E_x[e^{-q tau_b^+}] = e^{-Phi_q (b-x)}
    for q in (0.5, 2.0):
        val = joint_lt_upcross(model, 0.3, 1.7, q, 0.0, 1.3)
        assert val == pytest.approx(math.exp(-phi(model, q) * (1.7 - 0.3)), rel=1e-11)


def test_joint_lt_closed_value(bm):
    # derived via Ztilde(x,1,1) = 4 - e^{-x} from the closed scale forms
    expected = 3.0 / (4.0 - math.exp(-1.0))
    assert joint_lt_upcross(bm, 0.0, 1.0, 0.0, 2.0, 2.0) == pytest.approx(expected, rel=1e-13)


def test_joint_lt_symmetry_and_monotonicity(model):
    args = (0.2, 1.5, 0.3)
    assert joint_lt_upcross(model, *args, 1.0, 2.0) == joint_lt_upcross(model, *args, 2.0, 1.0)
    for grid, idx in (((0.5, 1.0, 2.0, 4.0), "p"), ((0.5, 1.0, 2.0, 4.0), "lam")):
        vals = []
        for g in grid:
            p, lam = (g, 2.0) if idx == "p" else (2.0, g)
            vals.append(joint_lt_upcross(model, *args, p, lam))
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))


def test_joint_lt_negative_start_stays_in_unit_interval(model):
    for x in (-3.0, -1.0, -0.2):
        v = joint_lt_upcross(model, x, 1.0, 0.2, 0.7, 1.1)
        assert 0.0 < v < 1.0


def test_lt_occupation_inf_values(bm):
    assert lt_occupation_inf(bm, 0.0, 2.0, 2.0) == pytest.approx(0.75, rel=1e-13)
    assert lt_occupation_inf(bm, 0.3, 1e-8, 2.0) == pytest.approx(1.0, abs=1e-6)
    # p -> inf recovers the exponential-delay non-ruin probability
    ctx0 = scale_context(bm, 0.0)
    ph = phi(bm, 2.0)
    target = bm.mean() * (ph / 2.0) * z(ctx0, 0.0, ph)
    assert lt_occupation_inf(bm, 0.0, 1e6, 2.0) == pytest.approx(target, rel=1e-3)
    assert target == pytest.approx(0.5, rel=1e-13)


def test_lt_occupation_inf_requires_drift():
    sinking = LevyModel.cramer_lundberg(0.25, 1.0, 2.0)
    with pytest.raises(DomainError):
        lt_occupation_inf(sinking, 0.0, 1.0, 1.0)


def test_lambda_to_infinity_recovers_continuous_occupation(model):
    # E[e^{-p O_inf}] = E[X_1] (Phi_p / p) Z(x, Phi_p); monotone approach in lam
    x, p = 0.5, 1.0
    ctx0 = scale_context(model, 0.0)
    php = phi(model, p)
    target = model.mean() * (php / p) * z(ctx0, x, php)
    vals = [lt_occupation_inf(model, x, p, lam) for lam in (10.0, 1e2, 1e3, 1e4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v > target for v in vals)
    assert vals[-1] == pytest.approx(target, rel=1e-2)


def test_gamma_lambda_laplace_identity(model):
    # int_0^inf e^{-p r} Gamma_lam(r) dr = 1/(Phi_p - Phi_lam) for p > lam
    lam, p = 2.0, 3.0
    val, _ = quad(lambda r: math.exp(-p * r) * gamma_lambda(model, lam, r), 0.0, 60.0, limit=300)
    assert val == pytest.approx(1.0 / (phi(model, p) - phi(model, lam)), abs=1e-4)


def test_gamma_lambda_small_rate_limit(cl):
    # as lam -> 0 (Phi_lam -> 0) the tilt disappears: Gamma ~ int_{z>0} (z/r) P(X_r in dz)
    r = 1.0
    td = transition(cl, r)
    plain = td.atom_mass * td.atom_location / r
    plain += quad(lambda zz: float(td.density(zz)) * zz / r, 0.0, td.upper, limit=200)[0]
    assert gamma_lambda(cl, 1e-12, r) == pytest.approx(plain, rel=1e-6)


def test_gamma_lambda_brute_force_midpoint(bm):
    # independent fine-grid midpoint oracle
    lam, r = 2.0, 1.0
    ph = phi(bm, lam)
    td = transition(bm, r)
    hi = td.upper + ph * bm.sigma**2 * r
    zs = np.arange(0.5e-6, hi, 1e-6)
    brute = float(np.sum(np.exp(ph * zs) * (zs / r) * td.density(zs)) * 1e-6)
    assert gamma_lambda(bm, lam, r) == pytest.approx(brute, abs=1e-5)


def test_gamma_comp_identity(model):
    # Gamma_lam(r) = psi'(Phi_lam) e^{lam r} + G(r)
    lam = 2.0
    ph = phi(model, lam)
    psip = psi_prime(model, ph)
    for r in (0.3, 1.0, 3.0):
        lhs = gamma_lambda(model, lam, r)
        rhs = psip * math.exp(lam * r) + _gamma_comp(model, ph, r)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("r", [0.05, 1.0, 20.0, 100.0])
def test_gamma_comp_brute_force_cl(cl, r):
    # adaptive quadrature of (1/r) E[X_r^- e^{Phi X_r}] against the transition series
    lam = 1.0
    ph = phi(cl, lam)
    td = transition(cl, r)
    brute = quad(lambda zz: -zz * math.exp(ph * zz) * float(td.density(zz)) / r,
                 td.lower, 0.0, limit=400, epsabs=0.0, epsrel=1e-12)[0]
    assert float(_gamma_comp(cl, ph, r)) == pytest.approx(brute, rel=1e-8)


def test_gamma_lambda_rejects_bad_r(model):
    with pytest.raises(DomainError):
        gamma_lambda(model, 1.0, 0.0)


def test_lambda_prime_laplace_identity(bm):
    # W(x) + int_0^inf e^{-p y} Lambda'(x, y) dy = Phi_p Z(x, Phi_p) / p
    x, p = 0.5, 1.0
    ctx0 = scale_context(bm, 0.0)
    val, _ = quad(lambda y: math.exp(-p * y) * lambda_prime(bm, x, y), 0.0, 80.0,
                  limit=400, points=[1e-6, 0.01, 0.1])
    php = phi(bm, p)
    assert w(ctx0, x) + val == pytest.approx(php * z(ctx0, x, php) / p, abs=1e-4)


def test_lambda_prime_far_start_vanishes(model):
    assert lambda_prime(model, 50.0, 1.0) == pytest.approx(0.0, abs=1e-6)


def test_lambda_prime_brute_force_midpoint(bm):
    x, r = 0.0, 1.0
    ctx0 = scale_context(bm, 0.0)
    td = transition(bm, r)
    zs = np.arange(0.5e-6, td.upper, 1e-6)
    wprime = ctx0.coeff_a * ctx0.phi_q * np.exp(ctx0.phi_q * (x + zs)) - ctx0.coeff_b * (
        ctx0.zeta_q
    ) * np.exp(-ctx0.zeta_q * (x + zs))
    brute = float(np.sum(wprime * (zs / r) * td.density(zs)) * 1e-6)
    assert lambda_prime(bm, x, r) == pytest.approx(brute, abs=1e-5)


@pytest.mark.parametrize("r", [0.05, 1.0, 20.0, 100.0])
def test_lambda_prime_brute_force_cl(cl, r):
    # atom at c*r plus adaptive quadrature against the transition series
    x = 0.5
    ctx0 = scale_context(cl, 0.0)
    td = transition(cl, r)

    def wprime(y):
        return ctx0.coeff_a * ctx0.phi_q * math.exp(ctx0.phi_q * y) - ctx0.coeff_b * (
            ctx0.zeta_q
        ) * math.exp(-ctx0.zeta_q * y)

    brute = td.atom_mass * wprime(x + td.atom_location) * td.atom_location / r
    brute += quad(lambda zz: wprime(x + zz) * (zz / r) * float(td.density(zz)), 0.0, td.upper,
                  limit=400, epsabs=0.0, epsrel=1e-12)[0]
    assert lambda_prime(cl, x, r) == pytest.approx(brute, rel=1e-8)


def test_lambda_prime_rejects_bad_r(model):
    with pytest.raises(DomainError):
        lambda_prime(model, 0.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_reject_non_finite_r(model, bad):
    law = occupation_law(model, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite r"):
            gamma_lambda(model, 2.0, bad)
        with pytest.raises(DomainError, match="finite r"):
            lambda_prime(model, 0.5, bad)
        with pytest.raises(DomainError, match="finite r"):
            law.density(bad)


def test_gamma_lambda_overflow_is_typed(model):
    # Gamma_lam grows like e^{lam r}: past the double range it is an error, not inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(gamma_lambda(model, 2.0, 300.0))
        with pytest.raises(OverflowError, match=r"r=400\.0, lam=2\.0"):
            gamma_lambda(model, 2.0, 400.0)


def test_kernels_accept_integer_r(model):
    assert gamma_lambda(model, 2.0, 3) == gamma_lambda(model, 2.0, 3.0)
    assert lambda_prime(model, 0.5, 2) == lambda_prime(model, 0.5, 2.0)


def test_occupation_law_atom(bm):
    law = occupation_law(bm, 0.0, 2.0)
    assert law.atom_at_zero == pytest.approx(0.5, rel=1e-13)
    # atom equals the probability the surplus is never observed negative
    ctx0 = scale_context(bm, 0.0)
    ph = phi(bm, 2.0)
    assert law.atom_at_zero == bm.mean() * (ph / 2.0) * z(ctx0, 0.0, ph)


def test_occupation_law_requires_drift():
    sinking = LevyModel.brownian(-0.2, 1.0)
    with pytest.raises(DomainError):
        occupation_law(sinking, 0.0, 1.0)


def test_occupation_law_density_domain(bm):
    law = occupation_law(bm, 0.0, 2.0)
    with pytest.raises(DomainError):
        law.density(0.0)


def test_occupation_law_normalizes(bm):
    law = occupation_law(bm, 0.0, 2.0)
    rmax = law.suggested_r_max(2e-5)
    val, _ = quad(law.density, 0.0, rmax, limit=120, epsabs=1e-6, epsrel=1e-6,
                  points=[0.01, 0.1, 1.0])
    assert law.atom_at_zero + val == pytest.approx(1.0, abs=1e-4)


def _check_laplace_consistency(model, x, lam):
    # transform of the constructed law matches the closed infinite-horizon transform
    law = occupation_law(model, x, lam)
    rmax = law.suggested_r_max(2e-6)
    u_nodes, u_w = np.polynomial.legendre.leggauss(440)
    umax = math.sqrt(rmax)
    uu = 0.5 * umax * (u_nodes + 1.0)
    dens = np.array([law.density(float(u * u)) for u in uu])
    for p in (0.5, 1.0, 2.0):
        integral = 0.5 * umax * float(np.dot(u_w, np.exp(-p * uu * uu) * dens * 2.0 * uu))
        total = law.atom_at_zero + integral
        assert total == pytest.approx(lt_occupation_inf(model, x, p, lam), abs=1e-4)


def test_occupation_law_laplace_consistency(bm):
    _check_laplace_consistency(bm, 0.0, 2.0)


def test_occupation_law_laplace_consistency_cl(cl):
    _check_laplace_consistency(cl, 0.5, 1.0)


def test_occupation_law_nonnegative_density(cl):
    law = occupation_law(cl, 0.3, 1.0)
    for r in (0.05, 0.3, 1.0, 3.0, 8.0):
        assert law.density(r) >= 0.0


def _check_density_finite(law, rs):
    # no overflow, no clamp warning: every value finite and >= 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in rs:
            val = law.density(r)
            assert math.isfinite(val) and val >= 0.0


def test_occupation_law_large_r_thin_model():
    # r_max of this thinly loaded model is about 1000, where e^{lam r} overflows
    thin = LevyModel.cramer_lundberg(1.5, 2.0, 1.6)
    _check_density_finite(occupation_law(thin, 0.5, 1.0), (0.1, 10.0, 300.0, 900.0))


def test_occupation_density_far_below_zero(model):
    # e^{-zeta_0 x} overflows on its own at x = -750; folded into the kernels it does not
    _check_density_finite(occupation_law(model, -750.0, 2.0), (1.0, 760.0, 1600.0))
