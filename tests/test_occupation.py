import itertools
import math
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from kendall import _gamma_comp, gamma_lambda, kendall_density, lambda_prime
from levyruin import (
    DomainError,
    LevyModel,
    NumericalError,
    joint_lt_upcross,
    lt_occupation_inf,
    occupation_law,
    phi,
    psi_prime,
    scale_context,
    transition,
    w,
    z,
)

# the benchmark's four models: bm_a and cl_a are the bm and cl fixtures
BM_B = LevyModel.brownian(0.3, 1.0)
CL_B = LevyModel.cramer_lundberg(1.5, 2.0, 1.6)
# a thin safety loading (decay 0.0023): long series windows and long first-passage tails
CL_THIN = LevyModel.cramer_lundberg(1.0, 1.0, 1.1)


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
    # transform of the constructed law matches the closed infinite-horizon transform.
    # From x < 0 a Cramer-Lundberg density jumps at r = |x|/c, where the first passage
    # to 0 has its atom, so the rule is split there: u = sqrt(r) below, r above
    law = occupation_law(model, x, lam)
    rmax = law.suggested_r_max(2e-6)
    jump = -x / model.c if model.kind == "cramer_lundberg" and x < 0.0 else rmax
    u_nodes, u_w = np.polynomial.legendre.leggauss(440)
    umax = math.sqrt(jump)
    uu = 0.5 * umax * (u_nodes + 1.0)
    rs, ws = uu * uu, 0.5 * umax * u_w * 2.0 * uu
    if jump < rmax:
        rs = np.concatenate((rs, jump + 0.5 * (rmax - jump) * (u_nodes + 1.0)))
        ws = np.concatenate((ws, 0.5 * (rmax - jump) * u_w))
    dens = np.array([law.density(float(r)) for r in rs])
    for p in (0.5, 1.0, 2.0):
        total = law.atom_at_zero + float(np.dot(ws, np.exp(-p * rs) * dens))
        assert total == pytest.approx(lt_occupation_inf(model, x, p, lam), abs=1e-4)


def test_occupation_law_laplace_consistency(bm):
    _check_laplace_consistency(bm, 0.0, 2.0)


def test_occupation_law_laplace_consistency_cl(cl):
    _check_laplace_consistency(cl, 0.5, 1.0)


def test_occupation_law_laplace_consistency_thin_cl():
    _check_laplace_consistency(CL_B, 0.5, 1.0)


@pytest.mark.parametrize("kind", ["bm", "cl"])
def test_occupation_law_laplace_consistency_below_zero(kind, bm, cl):
    # the closed form on Brownian models, the mixture over the first-passage level on
    # Cramer-Lundberg models
    _check_laplace_consistency(bm if kind == "bm" else cl, -0.5, 1.0)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_occupation_law_rejects_non_finite_inputs(model, bad):
    with pytest.raises(DomainError, match="finite x"):
        occupation_law(model, bad, 1.0)
    with pytest.raises(DomainError, match="finite lam"):
        occupation_law(model, 0.5, bad)


@pytest.mark.parametrize("x", [0.5, -0.5, -1e300])
@pytest.mark.parametrize("name", ["bm_a", "bm_b", "cl_a", "cl_b", "cl_thin"])
def test_occupation_law_extreme_inputs(name, x, bm, cl):
    # extreme rates, times and starting levels give a finite density >= 0 and an atom in
    # [0, 1], without an overflow warning; as lam -> 0 the density is about lam times a
    # finite function, so it stays > 0 at r = 1
    model = {"bm_a": bm, "bm_b": BM_B, "cl_a": cl, "cl_b": CL_B, "cl_thin": CL_THIN}[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam, r in ((1e-300, 1.0), (1e300, 1.0), (1.0, 1e-300), (1.0, 1e300)):
            law = occupation_law(model, x, lam)
            val = law.density(r)
            assert 0.0 <= law.atom_at_zero <= 1.0
            assert math.isfinite(val) and val >= 0.0, (lam, r, val)
            if lam == 1e-300:
                assert val > 0.0


@pytest.mark.parametrize("name", ["bm_a", "bm_b"])
def test_brownian_density_below_zero_at_the_float_edge(name, bm):
    # d, lam and t at the largest floats give a finite density >= 0 without a warning;
    # at d = t = 1.7e308 on bm_a (t = d/mu) it is the normal peak of tau_0^+
    model = {"bm_a": bm, "bm_b": BM_B}[name]
    edge = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, lam, t in itertools.product((edge, 1.0), repeat=3):
            val = occupation_law(model, -d, lam).density(t)
            assert math.isfinite(val) and val >= 0.0, (d, lam, t, val)
    if name == "bm_a":
        peak = 1.0 / (math.sqrt(2.0 * math.pi * model.sigma ** 2) * math.sqrt(edge))
        for lam in (edge, 1.0):
            assert occupation_law(model, -edge, lam).density(edge) == pytest.approx(
                peak, rel=1e-3)


def _g_mpmath(model, r):
    # density of O given O > 0 from x >= 0, at 30 digits: the erfc form on Brownian
    # models, the tail of the M/M/1 busy-period density (a Bessel integral) otherwise
    r = mp.mpf(r)
    if model.kind == "brownian":
        a = mp.mpf(model.mu) / (mp.sqrt(2) * mp.mpf(model.sigma))
        zz = a * mp.sqrt(r)
        return 2 * a * (mp.exp(-zz * zz) / mp.sqrt(mp.pi * r) - a * mp.erfc(zz))
    c, eta, alpha = mp.mpf(model.c), mp.mpf(model.eta), mp.mpf(model.alpha)
    m, kappa = eta + c * alpha, 2 * mp.sqrt(c * alpha * eta)
    pts = sorted({r, r * 1.01, r * 1.1, 2 * r, r + 1, r + 10, r + 100, r + 1000}) + [mp.inf]
    tail = mp.quad(lambda t: kappa / t * mp.besseli(1, kappa * t) * mp.exp(-m * t), pts)
    return c * (alpha - eta / c) / (2 * eta) * tail


@pytest.mark.parametrize("name", ["bm_a", "bm_b", "cl_a", "cl_b"])
def test_occupation_density_matches_mpmath(name, bm, cl):
    # on x >= 0 the density is (1 - atom) g(r), exact to rounding out to the grid's r_max
    model = {"bm_a": bm, "bm_b": BM_B, "cl_a": cl, "cl_b": CL_B}[name]
    with mp.workdps(30):
        for x, lam in ((0.0, 2.0), (0.5, 1.0)):
            law = occupation_law(model, x, lam)
            for r in np.geomspace(1e-4, law.suggested_r_max(2e-6), 9):
                ref = (1 - mp.mpf(law.atom_at_zero)) * _g_mpmath(model, r)
                assert law.density(float(r)) == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def _below_zero_mpmath_bm(model, x, lam, r):
    # Brownian density from x < 0 at 25 digits, each part from its definition:
    # atom_0 f_init(r, d) + (1 - atom_0) (e^{-Phi d} int e^{-lam v} (-g')(r + v) dv +
    # E f_init(r, d + U)), f_init(s, y) = lam int_s^inf e^{-lam (t - s)} f_IG(t, y) dt
    mu, sig, lam, d, r = (mp.mpf(v) for v in (model.mu, model.sigma, lam, -x, r))
    ph = (-mu + mp.sqrt(mu * mu + 2 * sig * sig * lam)) / (sig * sig)
    zeta, atom0, a = 2 * mu / sig ** 2, mu * ph / lam, mu / (mp.sqrt(2) * sig)

    def f_init(s, y):
        dens = lambda t: y / (sig * mp.sqrt(2 * mp.pi * t ** 3)) * mp.exp(  # noqa: E731
            -(y - mu * t) ** 2 / (2 * sig * sig * t))
        return lam * mp.quad(lambda t: mp.exp(-lam * (t - s)) * dens(t),
                             [s, s + 1 / lam, s + 10 / lam, mp.inf])

    drop = mp.quad(lambda v: mp.exp(-lam * v) * a / mp.sqrt(mp.pi) * (r + v) ** -1.5
                   * mp.exp(-a * a * (r + v)), [0, 1 / lam, mp.inf])
    mid = max(mp.mpf(0), mu * r - d)
    mix = mp.quad(lambda u: zeta * mp.exp(-zeta * u) * f_init(r, d + u),
                  sorted({mp.mpf(0), mid, mid + 1, mid + 5}) + [mp.inf])
    return atom0 * f_init(r, d) + (1 - atom0) * (mp.exp(-ph * d) * drop + mix)


@pytest.mark.parametrize("x, lam, r", [(-0.5, 30.0, 1.0), (-6.0, 30.0, 0.01)])
def test_occupation_density_below_zero_matches_mpmath(x, lam, r):
    # the last is a density of 2.6e-19, to the same relative accuracy
    with mp.workdps(25):
        ref = _below_zero_mpmath_bm(BM_B, x, lam, r)
    assert occupation_law(BM_B, x, lam).density(r) == pytest.approx(float(ref), rel=1e-9)


def test_cl_density_below_zero_is_one_quadrature(monkeypatch, cl):
    # a point from x < 0 is one quadrature over the first-passage level, with no inner
    # quadrature and no second one beside it
    from levyruin import occupation

    calls, gl_pieces = [], occupation.gl_pieces

    def counted_gl_pieces(*args, **kwargs):
        calls.append(1)
        return gl_pieces(*args, **kwargs)

    monkeypatch.setattr(occupation, "gl_pieces", counted_gl_pieces)
    law = occupation_law(cl, -0.5, 1.0)
    for n, r in enumerate((0.01, 0.3, 1.0, 30.0), 1):
        law.density(r)
        assert len(calls) == n


# Cramer-Lundberg densities from x < 0 as the strong-Markov split at tau_0^+ (two nested
# quadratures) gave them: (model, x, lam, r, density), away from the jump at r = -x/c
SPLIT_PINS = [
    ("cl_a", -0.5, 1.0, 0.1, 0.5185366915409346),
    ("cl_a", -0.1, 30.0, 1.0, 0.15196373016526604),
    ("cl_a", -2.0, 3.0, 10.0, 0.018181725643383852),
    ("cl_a", -6.0, 0.5, 100.0, 2.263151026552332e-09),
    ("cl_a", -6.0, 30.0, 3.0, 4.656011500127047e-41),
    ("cl_b", -0.1, 0.5, 0.01, 0.40261628689724427),
    ("cl_b", -0.5, 30.0, 3.0, 0.060168960710336825),
    ("cl_b", -2.0, 1.0, 30.0, 0.00678578901252894),
    ("cl_b", -6.0, 3.0, 0.3, 8.317141760010825e-08),
    ("cl_thin", -0.1, 1.0, 0.03, 0.19994040349833397),
    ("cl_thin", -0.5, 30.0, 1.0, 0.05663296576747964),
    ("cl_thin", -2.0, 0.5, 20.0, 0.008626917614970963),
    ("cl_thin", -6.0, 3.0, 100.0, 0.0030471127689108294),
]


@pytest.mark.parametrize("name, x, lam, r, value", SPLIT_PINS,
                         ids=[f"{n}-{x}-{lam}-{r}" for n, x, lam, r, _ in SPLIT_PINS])
def test_cl_density_below_zero_matches_the_strong_markov_split(name, x, lam, r, value, cl):
    model = {"cl_a": cl, "cl_b": CL_B, "cl_thin": CL_THIN}[name]
    assert occupation_law(model, x, lam).density(r) == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize("d", [1e8, 1e10, 1e12, 1e15])
@pytest.mark.parametrize("name", ["bm", "cl", "bm_b", "cl_b", "cl_thin"])
def test_occupation_density_far_below_zero_is_the_clt_peak(name, d, bm, cl):
    # from x = -d, O is about tau_0^+ ~ N(d/mu, psi''(0) d/mu^3) for large d, so the
    # density at d/mu is the normal peak to O(1/d): at most 4.4e-8 off at d = 1e8
    model = {"bm": bm, "cl": cl, "bm_b": BM_B, "cl_b": CL_B, "cl_thin": CL_THIN}[name]
    mu = model.mean()
    var = model.sigma ** 2 if model.kind == "brownian" else 2.0 * model.eta / model.alpha ** 2
    peak = 1.0 / math.sqrt(2.0 * math.pi * var * d / mu ** 3)
    assert occupation_law(model, -d, 1.0).density(d / mu) == pytest.approx(peak, rel=1e-6)


@pytest.mark.parametrize("name, d, t", [
    ("bm_b", 1e37, None), ("bm_b", 1e52, None), ("bm_b", 0.3 * 2.0 ** 174, 2.0 ** 174),
    ("cl_b", 1e28, None), ("cl_b", 1e37, None), ("cl_a", 1e215, None), ("cl_a", 1e300, None),
    ("cl_thin", 1e28, None)])
def test_occupation_density_far_below_zero_is_the_normal_law(name, d, t, cl):
    # far below 0 O is tau_0^+ ~ N(d/m, v d/m^3) to O(1/d), m and v the mean and variance
    # of X_1 of the float parameters in exact arithmetic.  At t = d/E[X_1], rounded, t
    # can lie many spreads from d/m: 16 on bm_b at d = 1e37, where E[X_1] t rounds back
    # to d.  Where d and t are exact (cl_a, and bm_b at t = 2^174) it is the normal peak
    model = {"bm_b": BM_B, "cl_b": CL_B, "cl_a": cl, "cl_thin": CL_THIN}[name]
    if model.kind == "brownian":
        m, v = Fraction(model.mu), Fraction(model.sigma) ** 2
    else:
        m = Fraction(model.c) - Fraction(model.eta) / Fraction(model.alpha)
        v = 2 * Fraction(model.eta) / Fraction(model.alpha) ** 2
    t = d / model.mean() if t is None else t
    var = v * Fraction(d) / m ** 3
    offset = float((Fraction(t) - Fraction(d) / m) ** 2 / (2 * var))
    peak = 1.0 / math.sqrt(2.0 * math.pi * float(var))
    assert Fraction(t) != Fraction(d) / m or offset == 0.0
    value = occupation_law(model, -d, 1.0).density(t)
    assert value == pytest.approx(peak * math.exp(-offset), rel=1e-9, abs=1e-300)


def test_cl_density_where_its_level_terms_overflow_is_a_numerical_error(cl):
    # alpha d and alpha c t both overflow at d = t = 1e308: a typed error, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="float range"):
            occupation_law(cl, -1e308, 1.0).density(1e308)
        assert occupation_law(cl, -1e308, 1.0).density(1.0) == 0.0


@pytest.mark.parametrize("x", [0.5, -0.5, -2.0])
def test_occupation_density_matches_kendall_oracle(model, x):
    # the paper's Kendall convolution (tests/kendall.py, about 1e-6 accurate) agrees
    # with the density on either side of 0
    law = occupation_law(model, x, 1.0)
    for r in (0.3, 1.0, 4.0):
        assert law.density(r) == pytest.approx(kendall_density(model, x, 1.0, r), rel=1e-5)


def test_import_loads_no_scipy():
    # scipy serves the Monte Carlo oracle alone (a stream binds ndtri at its first
    # normal draw, which only Brownian campaigns make), so no import of the library,
    # the registry, the CLI or the mc package loads it
    import subprocess

    for module in ("levyruin", "levyruin.registry", "levyruin.cli", "levyruin.mc"):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout.strip()
        assert out == "[]", module


def test_closed_forms_load_no_numpy(tmp_path):
    # numpy serves the density kernels and the Monte Carlo oracle alone: importing the
    # library, the registry, the CLI and the mc package, evaluating every closed-form
    # identity the sweep benchmark covers from above and below 0 on both model
    # families, and the CLI's eval and sweep, load no numpy module
    import json
    import subprocess

    from levyruin.registry import IDENTITIES

    base = {"b": 2.0, "a": 1.0, "q": 0.1, "p": 0.7, "lam": 1.3, "theta": 0.5, "y": -0.5,
            "z": 0.5, "r": 1.0, "n": 3}
    names = sorted(set(IDENTITIES) - {"occupation_law"})
    cl_path = tmp_path / "cl.json"
    cl_path.write_text(json.dumps({"kind": "cramer_lundberg", "c": 1, "eta": 1, "alpha": 2}))
    code = f"""
import math, sys
import levyruin, levyruin.cli, levyruin.mc, levyruin.registry
from levyruin.registry import IDENTITIES, evaluate_identity
for model in (levyruin.LevyModel.cramer_lundberg(1, 1, 2),
              levyruin.LevyModel.brownian(1, math.sqrt(2))):
    for x in (0.5, -0.5):
        for name in {names!r}:
            params = {{k: x if k == "x" else {base!r}[k] for k in IDENTITIES[name].params}}
            assert math.isfinite(evaluate_identity(name, model, params)[0]), name
model = {str(cl_path)!r}
assert levyruin.cli.main(["eval", "gs_lt_two_sided", "--model", model, "--x=0", "--b=1",
                          "--q=0", "--p=1000", "--lam=1000", "--theta=1000"]) == 0
assert levyruin.cli.main(["sweep", "lt_occupation_inf", "--model", model, "--p=2",
                          "--lam=2", "--grid", "x=-1:1:9"]) == 0
print(sorted(m for m in sys.modules if m.startswith("numpy.")), file=sys.stderr)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stderr.strip() == "[]"
    assert "value     0.000769631297558" in out.stdout
