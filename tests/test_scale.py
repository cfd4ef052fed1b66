import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levyruin import (
    DomainError,
    LevyModel,
    phi,
    psi,
    scale_context,
    script_w,
    w,
    w_prime,
    w_tilde,
    z,
    z_tilde,
)
from levyruin.scale import _at, _script_w_dp, _w_dq, _z_sum


def w0_closed_brownian(m, x):
    # q = 0 closed form, used only as an oracle
    return (1.0 / m.mu) * (1.0 - math.exp(-2.0 * m.mu * x / m.sigma ** 2))


def w0_closed_cl(m, x):
    c, eta, alpha = m.c, m.eta, m.alpha
    return (1.0 / (c - eta / alpha)) * (1.0 - (eta / (c * alpha)) * math.exp((eta / c - alpha) * x))


def z0_closed_brownian(m, x, theta):
    zr = 2.0 * m.mu / m.sigma ** 2
    return (psi(m, theta) / m.mu) * (1.0 / theta - math.exp(-zr * x) / (theta + zr))


def test_w_examples(bm, cl):
    ctx = scale_context(bm, 0.0)
    assert w(ctx, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)
    assert w(ctx, math.log(2.0)) == pytest.approx(w0_closed_brownian(bm, math.log(2.0)), rel=1e-13)
    assert w(ctx, -1.0) == 0.0
    ctx_cl = scale_context(cl, 0.0)
    assert w(ctx_cl, 0.0) == pytest.approx(1.0, rel=1e-14)  # 1/c for bounded variation
    assert w(ctx_cl, 1.3) == pytest.approx(w0_closed_cl(cl, 1.3), rel=1e-13)


def test_w_zero_at_origin_unbounded_variation(bm):
    for q in (0.0, 0.5, 2.0):
        ctx = scale_context(bm, q)
        assert w(ctx, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_defining_transform_by_quadrature(model):
    # int_0^L e^{-s y} W_q(y) dy = 1/psi_q(s), truncation tail below 1e-8
    for q in (0.0, 0.7, 2.0):
        ctx = scale_context(model, q)
        for off in (0.6, 1.7):
            s = ctx.phi_q + off
            tail = 1e-8
            L = math.log(ctx.coeff_a / (tail * off)) / off + 1.0
            val, _ = quad(lambda y: math.exp(-s * y) * w(ctx, y), 0.0, L, limit=300)
            assert val == pytest.approx(1.0 / (psi(model, s) - q), abs=1e-6)


def test_w_strictly_increasing_positive(model):
    for q in (0.0, 1.0):
        ctx = scale_context(model, q)
        xs = np.linspace(0.01, 12.0, 200)
        vals = [w(ctx, float(x)) for x in xs]
        assert all(v > 0.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_w_prime_examples(bm, cl):
    ctx = scale_context(bm, 0.0)
    assert w_prime(ctx, math.log(2.0)) == pytest.approx(0.5, rel=1e-13)
    for model, q, x in ((bm, 0.0, 1.0), (cl, 0.0, 0.5), (cl, 1.3, 2.0), (bm, 2.0, 0.3)):
        ctx = scale_context(model, q)
        h = 1e-6
        fd = (w(ctx, x + h) - w(ctx, x - h)) / (2.0 * h)
        assert w_prime(ctx, x) == pytest.approx(fd, rel=1e-7)
    with pytest.raises(DomainError):
        w_prime(ctx, 0.0)


def test_z_against_direct_quadrature(model):
    # independent oracle: the definition e^{theta x} (1 - psi_q(theta) int_0^x e^{-theta y} W_q dy)
    for q, x, theta in ((0.0, 1.0, 1.0), (0.8, 2.0, 0.5), (2.0, 0.7, 3.0)):
        ctx = scale_context(model, q)
        integral, _ = quad(lambda y: math.exp(-theta * y) * w(ctx, y), 0.0, x, epsabs=1e-13)
        direct = math.exp(theta * x) * (1.0 - (psi(model, theta) - q) * integral)
        assert z(ctx, x, theta) == pytest.approx(direct, rel=1e-10)


def test_z_examples(bm):
    ctx = scale_context(bm, 0.0)
    assert z(ctx, -2.0, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert z(ctx, 1.0, 1.0) == pytest.approx(z0_closed_brownian(bm, 1.0, 1.0), rel=1e-13)
    assert z(ctx, 1.0, 1.0) == pytest.approx(2.0 - math.exp(-1.0), rel=1e-13)


def test_z_at_phi_q_is_pure_exponential(model):
    for q in (0.5, 2.0):
        ctx = scale_context(model, q)
        for x in (0.0, 0.9, 3.7):
            assert z(ctx, x, ctx.phi_q) == pytest.approx(math.exp(ctx.phi_q * x), rel=1e-12)


def test_zv2_representation(model):
    # Z_q(x,theta) = psi_q(theta) int_0^inf e^{-theta y} W_q(x+y) dy for theta > Phi_q
    for q, x in ((0.0, 1.0), (1.0, 0.4)):
        ctx = scale_context(model, q)
        theta = ctx.phi_q + 1.2
        L = 60.0 / (theta - ctx.phi_q)
        val, _ = quad(lambda y: math.exp(-theta * y) * w(ctx, x + y), 0.0, L, limit=300)
        assert (psi(model, theta) - q) * val == pytest.approx(z(ctx, x, theta), abs=1e-6)


def test_cm1_exponential_ratio_limit(model):
    for q in (0.0, 1.0):
        ctx = scale_context(model, q)
        b = 40.0
        for x in np.linspace(0.0, 2.0, 9):
            ratio = w(ctx, float(x) + b) / w(ctx, b)
            assert ratio == pytest.approx(math.exp(ctx.phi_q * x), rel=1e-6)


def _z_dtheta(ctx, x, theta):
    # derivative of Z_q in its second argument, no positivity contract
    return _at(ctx, _z_sum(ctx, theta, 1), x)


def test_z_prime_theta(bm, cl):
    ctx = scale_context(bm, 0.0)
    assert _z_dtheta(ctx, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert _z_dtheta(ctx, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)
    assert _z_dtheta(ctx, -1.0, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-15)
    for model, q, x, theta in ((bm, 0.0, 1.0, 1.0), (cl, 0.6, 0.8, 1.4), (cl, 0.0, 2.0, 0.3)):
        c2 = scale_context(model, q)
        h = 1e-6 * (1.0 + theta)
        fd = (z(c2, x, theta + h) - z(c2, x, theta - h)) / (2.0 * h)
        assert _z_dtheta(c2, x, theta) == pytest.approx(fd, rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=-2.0, max_value=4.0),
)
def test_z_tilde_symmetry_exact(a, b, x):
    m = LevyModel.brownian(1.0, math.sqrt(2.0))
    ctx = scale_context(m, 0.5)
    assert z_tilde(ctx, x, a, b) == z_tilde(ctx, x, b, a)


def test_z_tilde_examples(bm):
    ctx = scale_context(bm, 0.0)
    # Z(0, .) = 1 so the divided difference reduces to (psi(a)-psi(b))/(a-b) = 1+a+b
    assert z_tilde(ctx, 0.0, 0.7, 1.9) == pytest.approx(1.0 + 0.7 + 1.9, rel=1e-13)
    assert z_tilde(ctx, 1.0, 1.0, 1.0) == pytest.approx(4.0 - math.exp(-1.0), rel=1e-13)
    assert z_tilde(ctx, 1.0, 1.0, 1.0) == pytest.approx(
        3.0 * (2.0 - math.exp(-1.0)) - 2.0 * (1.0 - math.exp(-1.0)), rel=1e-13
    )


def test_z_tilde_confluent_continuity(model):
    ctx = scale_context(model, 0.4)
    a = 1.3
    for x in (0.5, 2.0):
        eps = 1e-8 * (1.0 + a)
        two_point = z_tilde(ctx, x, a, a + 2.0 * eps)
        confluent = z_tilde(ctx, x, a + 0.5 * eps, a + 0.5 * eps)
        assert two_point == pytest.approx(confluent, abs=1e-6)


def test_script_w_trivial_reductions(model):
    ctx = scale_context(model, 0.6)
    assert script_w(ctx, 1.2, 2.0, 1.5) == w(ctx, 1.5)  # x <= a
    assert script_w(ctx, 0.0, 0.0, 1.5) == w(ctx, 1.5)  # zero weight


def test_script_w_two_representations(model):
    # first line (convolution from a) vs second line (full convolution minus head)
    for q, pe, a, x in ((0.0, 1.0, 0.0, 1.0), (0.3, 0.9, 0.5, 2.1), (0.0, 2.0, 1.0, 3.0),
                        (0.3, 1e-9, 0.5, 2.1)):
        ctx = scale_context(model, q)
        ctx2 = scale_context(model, q + pe)
        line1 = script_w(ctx, pe, a, x)
        head, _ = quad(lambda y: w(ctx2, x - y) * w(ctx, y), 0.0, a, epsabs=1e-13)
        line2 = w(ctx2, x) - pe * head
        assert line1 == pytest.approx(line2, abs=1e-9)


def test_conveq_brute_force(model):
    for pq, sq, x in ((0.0, 1.0, 1.0), (0.5, 2.0, 2.3), (1.0, 1.7, 0.7)):
        cp = scale_context(model, pq)
        cs = scale_context(model, sq)
        val, _ = quad(lambda y: w(cp, x - y) * w(cs, y), 0.0, x, epsabs=1e-13)
        assert (sq - pq) * val == pytest.approx(w(cs, x) - w(cp, x), abs=1e-8)


def test_convolution_of_script_w(model):
    # (s-(p+q)) int_a^x W_s(x-y) scriptW_a^{(p,q)}(y) dy = scriptW_a^{(p,s-p)}(x) - scriptW_a^{(p,q)}(x)
    pq, qe, sq, a, x = 0.3, 0.8, 2.0, 0.4, 1.6
    ctx_p = scale_context(model, pq)
    ctx_s = scale_context(model, sq)
    val, _ = quad(lambda y: w(ctx_s, x - y) * script_w(ctx_p, qe, a, y), a, x, epsabs=1e-11)
    lhs = (sq - (pq + qe)) * val
    rhs = script_w(ctx_p, sq - pq, a, x) - script_w(ctx_p, qe, a, x)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_lap_script_w(model):
    pq, sq, a = 0.4, 1.1, 0.8
    ctx = scale_context(model, pq)
    theta = phi(model, pq + sq) + 1.0
    val, _ = quad(lambda zz: math.exp(-theta * zz) * script_w(ctx, sq, a, a + zz), 0.0, 70.0,
                  limit=250)
    assert val == pytest.approx(z(ctx, a, theta) / (psi(model, theta) - pq - sq), abs=1e-6)


def test_w_tilde_ratio_one_at_b(model):
    q, p, lam, a, b = 0.2, 0.8, 1.5, 1.0, 2.0
    assert w_tilde(model, q, p, lam, b, a) / w_tilde(model, q, p, lam, b, a) == 1.0


def test_w_tilde_degenerates_smoothly_at_p_equals_lam(model):
    # the composite vanishes identically at p = lam; nearby it is O(|p - lam|)
    q, lam, x, a = 0.2, 1.5, 0.9, 1.0
    assert w_tilde(model, q, lam, lam, x, a) == pytest.approx(0.0, abs=1e-12)
    lo = w_tilde(model, q, lam * (1.0 - 1e-4), lam, x, a)
    hi = w_tilde(model, q, lam * (1.0 + 1e-4), lam, x, a)
    scale = abs(w_tilde(model, q, 2.0 * lam, lam, x, a))
    assert abs(lo) < 1e-3 * scale and abs(hi) < 1e-3 * scale
    assert lo == pytest.approx(-hi, rel=1e-3)


def test_w_tilde_large_a_limit(model):
    # normalized limit: w_tilde/(W_{p+q}(a) W_{q+lam}(a)) -> lam Z_q(x,Phi_{p+q}) - p Z_q(x,Phi_{q+lam})
    q, p, lam, x, a = 0.2, 0.8, 1.5, 0.9, 50.0
    num = w_tilde(model, q, p, lam, x, a)
    den = w(scale_context(model, q + p), a) * w(scale_context(model, q + lam), a)
    ctxq = scale_context(model, q)
    lim = lam * z(ctxq, x, phi(model, q + p)) - p * z(ctxq, x, phi(model, q + lam))
    assert num / den == pytest.approx(lim, rel=1e-9)


def test_scale_context_rejects_degenerate():
    with pytest.raises(DomainError):
        scale_context(LevyModel.brownian(0.0, 1.0), 0.0)  # E[X_1] = 0, double root


# (q, p_extra): a negative extra rate, a near-confluent one (the roots of psi = q
# and psi = q + p_extra a distance ~p_extra apart) and ordinary rates
CLOSED_FORM_RATES = ((0.3, -0.05), (0.06, -0.05), (0.3, 1e-9), (0.0, 0.7), (0.3, 3.0))
# (a, x): a < 0 <= x (a convolution from 0), an interior start, a short window
CLOSED_FORM_POINTS = ((-0.5, 1.2), (0.4, 2.5), (1.0, 1.05))


@pytest.mark.parametrize("q, pe", CLOSED_FORM_RATES)
def test_script_w_convolution_against_quadrature(model, q, pe):
    ctx = scale_context(model, q)
    ctx2 = scale_context(model, q + pe)
    for a, x in CLOSED_FORM_POINTS:
        lo = max(a, 0.0)
        val, _ = quad(lambda y: w(ctx2, x - y) * w(ctx, y), lo, x, epsabs=1e-14, epsrel=1e-13)
        assert script_w(ctx, pe, a, x) == pytest.approx(w(ctx, x) + pe * val, rel=1e-11)


@pytest.mark.parametrize("q, pe", CLOSED_FORM_RATES)
def test_script_w_dp_against_central_differences(model, q, pe):
    ctx = scale_context(model, q)
    h = 1e-4 * min(1.0, abs(pe) + q)
    for a, x in CLOSED_FORM_POINTS:
        fd = (script_w(ctx, pe + h, a, x) - script_w(ctx, pe - h, a, x)) / (2.0 * h)
        assert _script_w_dp(ctx, pe, a, x) == pytest.approx(fd, rel=1e-6)
    assert _script_w_dp(ctx, pe, 2.0, 1.5) == 0.0  # x <= a: script_w is W_q(x)


def test_w_dq_against_central_differences(model):
    for q, x in ((0.02, 0.7), (0.05, 2.0), (1.3, 0.2), (3.0, 4.0)):
        h = 1e-5 * (1.0 + q)
        fd = (w(scale_context(model, q + h), x) - w(scale_context(model, q - h), x)) / (2.0 * h)
        assert _w_dq(scale_context(model, q), x) == pytest.approx(fd, rel=1e-6)
    # W_q(0) is 0 (Brownian) or 1/c (Cramer-Lundberg) for every q, and W_q(x < 0) = 0
    assert _w_dq(scale_context(model, 0.4), 0.0) == pytest.approx(0.0, abs=1e-14)
    assert _w_dq(scale_context(model, 0.4), -1.0) == 0.0


def test_scale_context_cache_is_bounded(cl):
    maxsize = scale_context.cache_info().maxsize
    assert maxsize == 1 << 15
    for i in range(40_000):
        scale_context(cl, 0.01 + 1e-4 * i)
    assert scale_context.cache_info().currsize <= maxsize
