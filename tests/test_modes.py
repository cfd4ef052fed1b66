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
from scipy.integrate import quad

from levyruin import (
    DomainError,
    LevyModel,
    NumericalError,
    deficit_transform_erlang2,
    deficit_transform_t0,
    delayed_w_functional,
    gerber_shiu_density,
    gs_density_e2,
    gs_lt_infinite,
    gs_lt_two_sided,
    gs_lt_two_sided_e2,
    joint_lt_upcross,
    lt_occupation_exp_horizon,
    lt_occupation_inf,
    phi,
    ruin_prob_erlang_n,
    ruin_prob_sum_exp,
    scale_context,
    t0_joint_lt,
    upcross_before_t0,
    upcross_before_t0_two_sided,
    up_cross_three_barrier,
    w,
    z,
    z_tilde,
)
from levyruin.models import BROWNIAN, _psi_slopes
from levyruin.registry import IDENTITIES, evaluate_identity
from levyruin.scale import _z_sum, _z_tilde_sum, script_w
from test_scale import CLOSED_FORM_POINTS, CLOSED_FORM_RATES, _script_w_dp

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
        x, theta = mpmath.mpf(x), mpmath.mpmathify(theta)  # theta may be complex
        if x < 0:  # W_q vanishes there
            return mpmath.exp(theta * x)
        integral = sum((mpmath.exp((r - theta) * x) - 1) / (self.dpsi(r) * (r - theta))
                       for r in self.roots)
        return mpmath.exp(theta * x) * (1 - (self.psi(theta) - self.q) * integral)

    def z_tilde(self, x, a, b):
        psi_q = lambda t: self.psi(t) - self.q  # noqa: E731
        if a == b:
            return (self.dpsi(a) * self.z(x, a)
                    - psi_q(a) * mpmath.diff(lambda t: self.z(x, t), a))
        return (psi_q(a) * self.z(x, b) - psi_q(b) * self.z(x, a)) / (a - b)

    # the second-generation quantities, unreduced: every root term of scriptW is kept,
    # and the digits carry their cancellation.  On x >= 0 Z_q is taken as its partial
    # fractions, the definition with the cancelling e^{theta x} term removed exactly

    def z_modes(self, x, theta):
        x = mpmath.mpf(x)
        if x < 0:
            return mpmath.exp(theta * x)
        return sum(mpmath.exp(s * x) * (self.psi(theta) - self.psi(s)) / ((theta - s) * self.dpsi(s))
                   for s in self.roots)

    def w_rate(self, rate, x):
        # W_rate(x), from the residues of 1/(psi - rate)
        x = mpmath.mpf(x)
        if x < 0:
            return mpmath.mpf(0)
        return sum(mpmath.exp(r * x) / self.dpsi(r) for r in (self.root(rate, s) for s in (1, -1)))

    def script_w(self, pe, xi, length):
        # scriptW^{(q,pe)}(xi, xi + length) (Loeffen, Renaud & Zhou, 2014)
        xi, length = mpmath.mpf(xi), mpmath.mpf(length)
        if xi + length <= 0:
            return mpmath.mpf(0)
        if xi < 0:
            return self.w_rate(self.q + pe, xi + length)
        return sum(mpmath.exp(r * length) * self.z_modes(xi, r) / self.dpsi(r)
                   for r in (self.root(self.q + pe, s) for s in (1, -1)))

    def gs_density(self, x, b, p, lam, y):
        # p (e(x) - f(x) e(b) / f(b)), e = lam/(lam-p) (scriptW^lam - scriptW^p)(., . - y)
        # - bracket(-y) Z_q(., Phi_{q+lam}) and f = Z~_q(., Phi_{q+lam}, Phi_{q+p})
        x, b, p, lam, length = map(mpmath.mpf, (x, b, p, lam, -y))
        q = self.q
        phl, php = self.root(q + lam), self.root(q + p)
        bracket = (lam * self.w_rate(q + lam, length) - p * self.w_rate(q + p, length)) / (lam - p)

        def e(xi):
            return (lam / (lam - p) * (self.script_w(lam, xi, length) - self.script_w(p, xi, length))
                    - bracket * self.z_modes(xi, phl))

        def f(xi):
            return (lam * self.z_modes(xi, php) - p * self.z_modes(xi, phl)) / (phl - php)

        return p * (e(x) - f(x) * e(b) / f(b))

    def gs_density_e2(self, x, b, lam, y):
        # the p = lam limit
        return limit(lambda v: self.gs_density(x, b, v, lam, y), mpmath.mpf(lam))

    def three_barrier(self, x, b, a, p, lam):
        # lam W_{q+lam}(a) scriptW^{(q,p)}(xi, xi + a) - p W_{q+p}(a) scriptW^{(q,lam)}(xi, xi + a)
        # at xi = x over its value at xi = b; at p = lam the mean of the two sides
        x, b, a, p, lam = map(mpmath.mpf, (x, b, a, p, lam))
        if p == lam:
            return limit(lambda v: self.three_barrier(x, b, a, v, lam), p)
        q = self.q

        def f(xi):
            return (lam * self.w_rate(q + lam, a) * self.script_w(p, xi, a)
                    - p * self.w_rate(q + p, a) * self.script_w(lam, xi, a))

        return f(x) / f(b)

    def t0_joint_lt(self, x, b, lam, theta):
        # lam / (lam - psi_q(theta)) (Z_q(x, theta) - Z_q(x, Phi) Z_q(b, theta) / Z_q(b, Phi)),
        # Phi = Phi_{q+lam}; at theta = Phi the mean of the two sides
        x, b, lam, theta = map(mpmath.mpf, (x, b, lam, theta))
        ph = self.root(self.q + lam)
        if theta == ph:
            return limit(lambda v: self.t0_joint_lt(x, b, lam, v), theta)
        z = self.z_modes
        return (lam / (lam - self.psi(theta) + self.q)
                * (z(x, theta) - z(x, ph) * z(b, theta) / z(b, ph)))

    def delayed_w(self, x, b, a, lam, p, z_shift):
        x, b, a, lam, p, z_shift = map(mpmath.mpf, (x, b, a, lam, p, z_shift))
        q = self.q
        if p == q + lam:
            return limit(lambda v: self.delayed_w(x, b, a, lam, v, z_shift), p)

        def g(xi):
            return self.script_w(p - q, xi, z_shift) - self.script_w(lam, xi, z_shift)

        def f(xi):
            return self.script_w(lam, xi, a)

        return -lam / (p - q - lam) * (g(x) - f(x) * g(b) / f(b))


def limit(f, v):
    # f at a removable point v, as the mean of f at v (1 +- 10^(-dps/3)): off by the
    # second derivative times 10^(-2 dps/3)
    eps = v * mpmath.mpf(10) ** (-(mpmath.mp.dps // 3))
    return (f(v + eps) + f(v - eps)) / 2


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


def mp_deficit_series(model, x, lam, m):
    # the deficit transforms T_k(x) and T_k(0), k < m, by the recursion over the stages:
    # with N_k(theta; y) = E_y[e^{theta X_{rho^(k)}}; rho^(k) < inf], N_k = L N_{k-1}
    # + N_{k-1}(Phi; y) N_k(.; 0) and L f = lam (f - f(Phi)) / (lam - psi), on Taylor
    # coefficients in theta - Phi, Phi = Phi_lam.  Those of N_1, t0_joint_lt at q = 0 and
    # b = inf, and of (psi(theta) - lam) / (theta - Phi) are Cauchy integrals on a
    # circle of radius (Phi + zeta_lam) / 2, inside which both are analytic
    x, lam = map(mpmath.mpf, (x, lam))
    ex = Exact(model, 0)
    ph = ex.root(lam)
    rad, nodes = (ph - ex.root(lam, -1)) / 2, 128
    unity = [mpmath.expjpi(mpmath.mpf(2 * k) / nodes) for k in range(nodes)]

    def taylor(f):
        vals = [f(ph + rad * u) for u in unity]
        return [mpmath.re(mpmath.fsum(v / unity[j * k % nodes] for k, v in enumerate(vals)))
                / (nodes * rad ** j) for j in range(m)]

    def n1(y):
        return taylor(lambda th: lam * (ex.z(y, th) - ph * ex.psi(th) / (lam * th) * ex.z(y, ph))
                      / (lam - ex.psi(th)))

    div = taylor(lambda th: (ex.psi(th) - lam) / (th - ph))

    def shift_divide(a):  # -lam (a(theta) - a(Phi)) / (psi(theta) - lam)
        out = []
        for j in range(len(a) - 1):
            out.append((a[j + 1] - mpmath.fsum(div[i] * out[j - i] for i in range(1, j + 1)))
                       / div[0])
        return [-lam * c for c in out]

    at_x, at_0 = n1(x), n1(0)
    t_x, t_0 = [at_x[0]], [at_0[0]]
    for _ in range(2, m):
        at_0 = [c / (1 - at_0[0]) for c in shift_divide(at_0)]
        at_x = [c + at_x[0] * c0 for c, c0 in zip(shift_divide(at_x), at_0)]
        t_x.append(at_x[0])
        t_0.append(at_0[0])
    return t_x, t_0


def mp_ruin_erlang_n(model, x, lam, n, series=None):
    # the survival recursion over the deficit transforms: in closed form for the first
    # two stages, from mp_deficit_series (or its given result, of n - 1 stages or more)
    # beyond
    if n > 3 and series is None:
        series = mp_deficit_series(model, x, lam, n)
    x, lam = map(mpmath.mpf, (x, lam))
    ex = Exact(model, 0)
    ph = ex.root(lam)
    surv_x, surv_0 = (ex.dpsi(0) * ph / lam * ex.z(y, ph) for y in (x, 0))
    if n <= 3:
        transforms = [(t(model, x, lam), t(model, 0, lam))
                      for t in (mp_deficit_t0, mp_deficit_erlang2)[:n - 1]]
    else:
        transforms = list(zip(*series))[:n - 1]
    for t_x, t_0 in transforms:
        surv_x, surv_0 = surv_x + surv_0 * t_x / (1 - t_0), surv_0 / (1 - t_0)
    return 1 - surv_x


def mp_joint_lt_upcross(model, x, b, q, p, lam):
    x, b, q, p, lam = map(mpmath.mpf, (x, b, q, p, lam))
    ex = Exact(model, q)
    phl, php = ex.root(q + lam), ex.root(q + p)
    return ex.z_tilde(x, phl, php) / ex.z_tilde(b, phl, php)


def mp_gs_lt_two_sided(model, x, b, q, p, lam, theta):
    # (p / psi_{q+p}(theta)) (e(x) - f(x) e(b) / f(b)), e = (lam Z_q(., theta) - psi_q(theta)
    # Z_q(., Phi_{q+lam})) / psi_{q+lam}(theta) and f = Z~_q(., Phi_{q+lam}, Phi_{q+p}), from
    # the partial fractions of Z_q, which do not cancel at large exponents
    x, b, q, p, lam, theta = map(mpmath.mpf, (x, b, q, p, lam, theta))
    ex = Exact(model, q)
    phl, php = ex.root(q + lam), ex.root(q + p)
    z = ex.z_modes

    def psi_q(t):
        return ex.psi(t) - q

    def e(y):
        return (lam * z(y, theta) - psi_q(theta) * z(y, phl)) / (psi_q(theta) - lam)

    def f(y):
        if phl == php:
            return ex.dpsi(phl) * z(y, phl) - psi_q(phl) * mpmath.diff(lambda t: z(y, t), phl)
        return (psi_q(phl) * z(y, php) - psi_q(php) * z(y, phl)) / (phl - php)

    return p / (psi_q(theta) - p) * (e(x) - f(x) * e(b) / f(b))


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
            assert_matches(ruin_prob_erlang_n(model, x, LAM, n),
                           mp_ruin_erlang_n(model, x, LAM, n))


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("x", [0.5, 10.0, 40.0, -0.5])
def test_erlang_n_ruin_matches_mpmath_recursion(key, x):
    # every n is closed-form, at full relative accuracy far in the tail and below 0;
    # at n = 64 the ruin probability is down to 1e-8 of its n = 1 value on bm_a
    model = MODELS[key]
    # Z_0's definition cancels e^{theta x}, and Re theta <= 1.5 gap on the circle
    gap = float(Exact(model, 0).root(LAM) - Exact(model, 0).root(LAM, -1))
    with mpmath.workdps(40 + int(1.5 * gap * max(x, 0.0) / math.log(10.0))):
        if x == 0.5:  # the series' first two stages are the closed-form transforms
            t_x, t_0 = mp_deficit_series(model, x, LAM, 3)
            assert abs(t_x[1] - mp_deficit_erlang2(model, x, LAM)) <= mpmath.mpf("1e-30")
            assert abs(t_0[0] - mp_deficit_t0(model, 0, LAM)) <= mpmath.mpf("1e-30")
        series = mp_deficit_series(model, x, LAM, 64)
        for n in (4, 8, 16, 64):
            assert_matches(ruin_prob_erlang_n(model, x, LAM, n),
                           mp_ruin_erlang_n(model, x, LAM, n, series))


def test_gs_lt_two_sided_keeps_its_digits_next_to_both_poles():
    # theta = 1000 lies 1e-3 below Phi_{q+lam} = Phi_{q+p}, where E, psi_{q+lam} and
    # psi_{q+p} all vanish: the value keeps every digit of the 80-digit one
    with mpmath.workdps(80):
        exact = mp_gs_lt_two_sided(MODELS["cl_a"], 0.0, 1.0, 0.0, 1000.0, 1000.0, 1000.0)
    got = gs_lt_two_sided(MODELS["cl_a"], 0.0, 1.0, 0.0, 1000.0, 1000.0, 1000.0)
    assert abs(got - exact) <= mpmath.mpf("1e-12") * exact, (got, exact)


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("lam", [LAM, 1000.0])
def test_gerber_shiu_transforms_next_to_phi_q_lam_match_mpmath(key, lam):
    # E / psi_{q+lam}(theta) is a divided difference in theta, so neither transform loses
    # digits as theta approaches Phi_{q+lam}, from above 0 or below it; the infinite
    # horizon is the two-sided transform at b = 80, where the rest is below e^{-80}
    model = MODELS[key]
    ph = phi(model, Q + lam)
    for theta in (ph * 1.001, ph * (1.0 + 1e-6), ph * (1.0 - 1e-9), ph):
        for x in (0.5, -0.5):
            with mpmath.workdps(80):
                two_sided = mp_gs_lt_two_sided(model, x, 2.0, Q, P, lam, theta)
                infinite = mp_gs_lt_two_sided(model, x, 80.0, Q, P, lam, theta)
            for got, exact in ((gs_lt_two_sided(model, x, 2.0, Q, P, lam, theta), two_sided),
                               (gs_lt_infinite(model, x, Q, P, lam, theta), infinite)):
                assert abs(got - exact) <= mpmath.mpf("1e-12") * exact, (theta, x, got, exact)


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


def mp_script_w(model, q, p, a, x):
    # sum over the exact roots r of psi = q + p of e^{r (x - a)} Z_q(a, r) / psi'(r), the
    # second-generation scale function for 0 <= a < x (Loeffen, Renaud & Zhou, 2014)
    q, p, a, x = map(mpmath.mpf, (q, p, max(a, 0.0), x))
    ex = Exact(model, q)
    return sum(mpmath.exp(r * (x - a)) * ex.z(a, r) / ex.dpsi(r)
               for r in (ex.root(q + p, sign) for sign in (1, -1)))


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("q, pe", CLOSED_FORM_RATES)
def test_script_w_and_its_p_derivative_match_mpmath(key, q, pe):
    model = MODELS[key]
    ctx = scale_context(model, q)
    for a, x in (*CLOSED_FORM_POINTS, (0.4, 0.41)):
        with mpmath.workdps(60):
            exact = mp_script_w(model, q, pe, a, x)
            exact_dp = mpmath.diff(lambda v: mp_script_w(model, q, v, a, x), mpmath.mpf(pe))
        assert script_w(ctx, pe, a, x) == pytest.approx(float(exact), rel=1e-12)
        assert _script_w_dp(ctx, pe, a, x) == pytest.approx(float(exact_dp), rel=1e-10)


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
                          (lambda x: ruin_prob_erlang_n(model, x, lam, 3), False)):
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
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_rates_finite_or_typed_error(key):
    model = MODELS[key]
    for name, ident in sorted(IDENTITIES.items()):
        names = list(ident.params)
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


ABSORBING = sorted(name for name, ident in IDENTITIES.items()
                   if {"q", "lam"} <= set(ident.params))


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("name", ABSORBING)
def test_rates_below_the_resolution_of_q_raise(key, name):
    # every identity that forms q + lam (and q + p) raises where q absorbs the rate
    names = list(IDENTITIES[name].params)
    params = {k: BASE[k] for k in names}
    assert math.isfinite(float(evaluate_identity(name, MODELS[key], params)[0]))
    params["q"] = 1e16
    with pytest.raises(NumericalError, match="absorbs"):
        evaluate_identity(name, MODELS[key], params)


@pytest.mark.parametrize("key", ["cl_a", "cl_b"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_erlang_ruin_at_huge_rates_tends_to_ordinary_ruin(key, n):
    # an Erlang(n, lam) delay shrinks to 0 as lam -> inf, leaving the ruin probability
    # (eta / (c alpha)) e^{-(alpha - eta / c) x} of Exp(alpha) claims
    model, x = MODELS[key], 0.5
    ruin = model.eta / (model.c * model.alpha) * math.exp(-(model.alpha - model.eta / model.c) * x)
    for e in range(20, 301, 20):
        assert ruin_prob_erlang_n(model, x, 10.0 ** e, n) == pytest.approx(ruin, rel=1e-12)


# ---------------------------------------------------------------------------
# a larger discount gives a smaller value, or a typed error, never garbage
# ---------------------------------------------------------------------------

DISCOUNTS = (0.1, 0.3, 1.0, 3.0, 10.0, 20.0, 30.0, 45.0, 60.0, 80.0, 100.0, 150.0, 200.0,
             300.0, 500.0, 700.0, 1000.0, 2000.0, 3000.0, 1e4)
# in lt_occupation_exp_horizon q is the rate of an exponential horizon, not a
# discount: its value grows with q
DISCOUNTED = sorted(name for name, ident in IDENTITIES.items()
                    if "q" in ident.params
                    and name != "lt_occupation_exp_horizon")


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("name", DISCOUNTED)
def test_discounted_identities_decrease_in_q(key, name):
    names = list(IDENTITIES[name].params)
    previous = math.inf
    for q in DISCOUNTS:
        params = {k: BASE[k] for k in names}
        params["q"] = q
        try:
            value = float(evaluate_identity(name, MODELS[key], params)[0])
        except (DomainError, NumericalError, ArithmeticError):
            continue
        assert math.isfinite(value) and 0.0 <= value <= (1.0 + 1e-9) * previous, (q, value)
        previous = value


# ---------------------------------------------------------------------------
# second-generation identities: decaying root terms against the unreduced formulas
# ---------------------------------------------------------------------------

# (model, x, b, q, p, lam, y, value); the values are 60-digit evaluations of
# Exact.gs_density at least, to 12 digits
GS_PINS = [
    ("cl_a", 0.5, 2.0, 2.0, 2.0, 3.0, -3.0, 2.760258596664e-4),
    ("cl_a", 0.5, 2.0, 0.1, 0.7, 3.0, -5.0, 1.81374730421e-4),
    ("cl_a", 0.5, 2.0, 0.1, 0.7, 10.0, -2.0, 9.19794805916e-3),
    ("cl_a", 0.5, 2.0, 0.1, 0.7, 100.0, -0.5, 7.10729751338e-2),
    ("bm_a", 0.5, 2.0, 0.1, 0.7, 100.0, -4.0, 5.01693498976e-4),
    ("bm_a", 0.5, 2.0, 0.1, 0.7, 1e4, -0.5, 0.1001396559199),
]
# (model, x, b, q, lam, y, value)
E2_PINS = [
    ("cl_a", -1.0, 3.0, 0.05, 3.0, -4.0, 2.589943208464e-3),
    ("bm_a", -1.0, 3.0, 0.05, 3.0, -7.0, 4.451176230058e-6),
    ("bm_b", -1.0, 3.0, 0.05, 3.0, -7.0, 5.247642087857e-7),
    ("cl_a", -1.0, 3.0, 0.05, 3.0, -7.0, 2.462994791392e-5),
    ("cl_b", -1.0, 3.0, 0.05, 3.0, -7.0, 7.953696444645e-4),
    ("cl_a", 0.5, 2.0, 0.1, 1e4, 0.0, 0.4683172948722),
    ("cl_a", 0.5, 2.0, 0.1, 1e8, 0.0, 0.4685259518401),
    ("cl_a", 0.5, 2.0, 0.1, 1e12, 0.0, 0.4685259727147),
    ("cl_a", 0.5, 2.0, 0.1, 1e16, 0.0, 0.4685259727168),
]
# (model, x, b, a, q, lam, p, z, value)
DELAYED_W_PINS = [
    ("cl_a", 0.5, 2.0, 1.0, 60.0, 1.3, 0.7, 0.5, 1.188468833559e-4),
    ("cl_a", 0.5, 2.0, 1.0, 80.0, 1.3, 0.7, 0.5, 6.840850524352e-5),
    ("cl_a", 0.5, 2.0, 1.0, 150.0, 1.3, 0.7, 0.5, 2.011142637641e-5),
    ("cl_a", 0.5, 2.0, 1.0, 0.1, 100.0, 0.7, 0.5, 0.2262725309587),
]


def pin_digits(model, rate, length, q, b):
    # enough digits for terms e^{Phi_rate length} and e^{Phi_q b} to cancel
    return 60 + int(1.3 * (phi(model, rate) * length + phi(model, q) * b) / math.log(10.0))


@pytest.mark.parametrize("key, x, b, q, p, lam, y, value", GS_PINS)
def test_gerber_shiu_density_matches_mpmath(key, x, b, q, p, lam, y, value):
    model = MODELS[key]
    with mpmath.workdps(pin_digits(model, q + max(p, lam), -y, q, b - x)):
        exact = float(Exact(model, q).gs_density(x, b, p, lam, y))
    assert exact == pytest.approx(value, rel=1e-11)
    assert gerber_shiu_density(model, x, b, q, p, lam, y) == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("key, x, b, q, lam, y, value", E2_PINS)
def test_gs_density_e2_matches_mpmath(key, x, b, q, lam, y, value):
    model = MODELS[key]
    with mpmath.workdps(3 * pin_digits(model, q + lam, -y, q, b - x) + 200):
        exact = float(Exact(model, q).gs_density_e2(x, b, lam, y))
    assert exact == pytest.approx(value, rel=1e-11)
    assert gs_density_e2(model, x, b, q, lam, y) == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("key, x, b, a, q, lam, p, zs, value", DELAYED_W_PINS)
def test_delayed_w_functional_matches_mpmath(key, x, b, a, q, lam, p, zs, value):
    model = MODELS[key]
    with mpmath.workdps(pin_digits(model, q + lam, a, q, b - x)):
        exact = float(Exact(model, q).delayed_w(x, b, a, lam, p, zs))
    assert exact == pytest.approx(value, rel=1e-11)
    assert delayed_w_functional(model, x, b, a, q, lam, p, zs) == pytest.approx(exact, rel=1e-11)


# relative offsets s from each removable point: p = lam (1 + s), p = (q + lam)(1 + s),
# theta = Phi_{q+lam} (1 + s) or b = a (1 + s)
OFFSETS = (0.0,) + tuple(sign * 10.0 ** -e for e in (13, 11, 9, 7, 5, 3) for sign in (1, -1))
# (x, extra): the start, and the level the identity adds (b, y or z); from x < 0 both
# sides of -y and -z
RATE_POINTS = {
    "up_cross_three_barrier": ((0.5, None), (-0.5, None)),
    "gerber_shiu_density": ((0.5, -0.3), (-0.5, -0.3), (-0.5, -2.0)),
    "delayed_W_functional": ((0.5, 0.5), (-0.3, 0.5), (-0.8, 0.5)),
    "T0_joint_lt": ((0.5, None), (-0.5, None)),
    "z_tilde": ((-0.5, None), (-2.0, None)),
}


def _at_offset(name, model, ex, x, extra, s):
    # (library value, 50-digit value) at relative offset s from the removable point
    b, a, q, lam = 2.0, 1.0, Q, LAM
    if name == "up_cross_three_barrier":
        p = lam * (1.0 + s)
        return (up_cross_three_barrier(model, x, b, a, q, p, lam),
                ex.three_barrier(x, b, a, p, lam))
    if name == "gerber_shiu_density":
        p = lam * (1.0 + s)
        got = gerber_shiu_density(model, x, b, q, p, lam, extra)
        return got, ex.gs_density(x, b, p, lam, extra) if s else ex.gs_density_e2(x, b, lam, extra)
    if name == "delayed_W_functional":
        p = (q + lam) * (1.0 + s)
        return (delayed_w_functional(model, x, b, a, q, lam, p, extra),
                ex.delayed_w(x, b, a, lam, p, extra))
    if name == "T0_joint_lt":
        theta = phi(model, q + lam) * (1.0 + s)
        return t0_joint_lt(model, x, b, q, lam, theta), ex.t0_joint_lt(x, b, lam, theta)
    b = a * (1.0 + s)
    return (z_tilde(scale_context(model, q), x, a, b),
            ex.z_tilde(mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(b)))


@pytest.mark.parametrize("key", MODELS)
@pytest.mark.parametrize("name", RATE_POINTS)
def test_removable_points_by_divided_differences_match_mpmath(key, name):
    # each identity with a removable point keeps 12 digits on both sides of it and at it
    model = MODELS[key]
    with mpmath.workdps(50):
        ex = Exact(model, Q)
        for x, extra in RATE_POINTS[name]:
            for s in OFFSETS:
                got, exact = _at_offset(name, model, ex, x, extra, s)
                assert abs(got - exact) <= mpmath.mpf("1e-12") * abs(exact), (x, extra, s, got)


@pytest.mark.parametrize("key", MODELS)
def test_gerber_shiu_density_at_p_equal_lam_is_gs_density_e2(key):
    model = MODELS[key]
    for x, y in ((0.5, -0.5), (-0.5, -0.3), (-0.5, -2.0), (0.5, 0.0)):
        e2 = gs_density_e2(model, x, 2.0, Q, LAM, y)
        assert abs(gerber_shiu_density(model, x, 2.0, Q, LAM, LAM, y) - e2) <= 1e-14 * abs(e2)


@pytest.mark.parametrize("key", ["cl_a", "cl_b"])
def test_residue_next_to_the_pole_matches_mpmath(key):
    # -zeta_q approaches the pole -alpha of psi' as q grows; alpha - zeta_q is taken
    # without subtraction, so 1/psi'(-zeta_q) keeps its relative precision
    model = MODELS[key]
    for q in (1e4, 1e8, 1e12, 1e15):
        with mpmath.workdps(50):
            ex = Exact(model, q)
            exact = float(1 / ex.dpsi(ex.roots[1]))
        assert scale_context(model, q).coeff_b == pytest.approx(exact, rel=1e-14), q


@pytest.mark.parametrize("key", ["cl_a", "bm_a"])
@pytest.mark.parametrize("lam", [1.3, 3.0, 10.0, 100.0])
def test_density_laplace_transform_over_all_deficits(key, lam):
    # the densities integrate against e^{theta y} over all y <= 0 to the joint transforms
    model, x, b = MODELS[key], 0.5, 2.0
    for theta in (0.0, 0.5):
        for density, transform in (
                (lambda y: gerber_shiu_density(model, x, b, Q, P, lam, y),
                 gs_lt_two_sided(model, x, b, Q, P, lam, theta)),
                (lambda y: gs_density_e2(model, x, b, Q, lam, y),
                 gs_lt_two_sided_e2(model, x, b, Q, lam, theta))):
            val, _ = quad(lambda y: math.exp(theta * y) * density(y), -math.inf, 0.0,
                          epsabs=1e-13, epsrel=1e-13, limit=200)
            assert val == pytest.approx(transform, abs=1e-10), (theta, val, transform)


@pytest.mark.parametrize("key", MODELS)
def test_second_generation_identities_over_a_rate_scan(key):
    # lam from 1 to 1e4 at a = 1: the scriptW modes carry e^{Phi_{q+lam} a} only as a
    # factored-out scale, and the densities keep their decaying root terms
    model, x, b, a = MODELS[key], 0.5, 2.0, 1.0
    for k in range(17):
        lam = 10.0 ** (k / 4)
        for v in (up_cross_three_barrier(model, x, b, a, Q, P, lam),
                  up_cross_three_barrier(model, x, b, a, Q, lam, lam),
                  upcross_before_t0_two_sided(model, x, b, a, Q, lam)):
            assert _in_unit(v), (lam, v)
        values = [delayed_w_functional(model, x, b, a, Q, lam, P, 0.5)]
        # x = -3 starts below the deficit y = -1, where e^{Phi_{q+lam} |y|} alone overflows
        for x0, y in ((x, 0.0), (x, -0.5), (x, -2.0), (-3.0, -1.0)):
            values += [gerber_shiu_density(model, x0, b, Q, P, lam, y),
                       gs_density_e2(model, x0, b, Q, lam, y)]
        assert all(math.isfinite(v) and v >= 0.0 for v in values), (lam, values)


@pytest.mark.parametrize("key", ["cl_a", "cl_b"])
def test_erlang2_identities_at_huge_rates_tend_to_ordinary_ruin(key):
    # an Erlang(2, lam) delay shrinks to 0 as lam -> inf: the three-barrier
    # up-crossing tends to W_q(x)/W_q(b), and, since the deficit at ruin under
    # Exp(alpha) claims is Exp(alpha) and independent of the ruin time, the density
    # tends to alpha e^{alpha y} E_x[e^{-q tau_0^-}; tau_0^- < tau_b^+]
    model, x, b = MODELS[key], 0.5, 2.0
    ctx = scale_context(model, Q)
    ruin = z(ctx, x, 0.0) - z(ctx, b, 0.0) * w(ctx, x) / w(ctx, b)
    for lam in (1e17, 1e20, 1e100):
        assert up_cross_three_barrier(model, x, b, 1.0, Q, lam, lam) == pytest.approx(
            w(ctx, x) / w(ctx, b), rel=1e-12)
        for y in (0.0, -0.5):
            assert gs_density_e2(model, x, b, Q, lam, y) == pytest.approx(
                model.alpha * math.exp(model.alpha * y) * ruin, rel=1e-12)
    # past lam ~ 1e100 the root -zeta_{q+lam} is so close to -alpha that the terms
    # underflow: a typed error, not a wrong value
    with pytest.raises(NumericalError, match="pole"):
        gs_density_e2(model, x, b, Q, 1e300, -0.5)
