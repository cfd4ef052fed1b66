import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from levyruin import (
    DomainError,
    LevyModel,
    NumericalError,
    deficit_transform_erlang2,
    deficit_transform_t0,
    delayed_w_functional,
    fixed_delay_approx,
    gerber_shiu_density,
    gs_density_e2,
    gs_lt_infinite,
    gs_lt_infinite_e2,
    gs_lt_two_sided,
    gs_lt_two_sided_e2,
    joint_lt_upcross,
    lt_occupation_exp_horizon,
    phi,
    psi_prime,
    ruin_prob_erlang2,
    ruin_prob_erlang_n,
    ruin_prob_sum_exp,
    scale_context,
    t0_joint_lt,
    up_cross_before_ruin,
    up_cross_e2,
    up_cross_three_barrier,
    upcross_before_t0,
    upcross_before_t0_two_sided,
    w,
    z,
)
from fixed_delay import fixed_delay_ruin
from printed_forms import erlang2_ruin_alternative_form
from test_modes import Exact
from test_modes import MODELS


def test_ruin_sum_exp_values(bm):
    assert ruin_prob_sum_exp(bm, 0.0, 2.0, 2.0) == pytest.approx(0.25, rel=1e-13)
    assert ruin_prob_sum_exp(bm, 40.0, 2.0, 2.0) < 1e-6


def test_ruin_sum_exp_symmetric(model):
    for x, p, lam in ((0.0, 0.7, 2.1), (1.5, 3.0, 0.4)):
        assert ruin_prob_sum_exp(model, x, p, lam) == ruin_prob_sum_exp(model, x, lam, p)


def test_ruin_sum_exp_p_large_recovers_exponential_delay(model):
    x, lam = 0.5, 1.0
    ctx0 = scale_context(model, 0.0)
    ph = phi(model, lam)
    target = 1.0 - model.mean() * (ph / lam) * z(ctx0, x, ph)
    assert ruin_prob_sum_exp(model, x, 1e6, lam) == pytest.approx(target, rel=1e-2)


def test_gs_lt_two_sided_zero_at_b(model):
    assert gs_lt_two_sided(model, 1.5, 1.5, 0.3, 0.7, 1.1, 0.2) == pytest.approx(0.0, abs=1e-14)


def test_gs_lt_two_sided_complements_upcrossing(model):
    # at q = 0, theta = 0 the transform is P_x(rho < tau_b^+); with positive drift
    # one of the two events happens, so it complements the up-crossing probability
    for x, b, p, lam in ((0.0, 1.0, 2.0, 2.0), (0.5, 2.0, 0.7, 1.3), (-0.5, 1.0, 1.0, 1.0)):
        ruin_first = gs_lt_two_sided(model, x, b, 0.0, p, lam, 0.0)
        assert ruin_first + up_cross_before_ruin(model, x, b, 0.0, p, lam) == pytest.approx(
            1.0, abs=1e-12
        )


def test_gs_lt_two_sided_p_large_matches_t0_identity(cl):
    v1 = gs_lt_two_sided(cl, 0.5, 2.0, 0.3, 1e6, 1.0, 0.4)
    v2 = t0_joint_lt(cl, 0.5, 2.0, 0.3, 1.0, 0.4)
    assert v1 == pytest.approx(v2, rel=1e-3)


def test_gs_lt_two_sided_pole_errors(cl):
    # theta = Phi_{q+p} is removable from x >= 0 and raises from x < 0
    ph = phi(cl, 0.5 + 1.0)
    with pytest.raises(DomainError, match="removable"):
        gs_lt_two_sided(cl, -0.5, 1.0, 0.5, 1.0, 1.0, ph)
    near = [gs_lt_two_sided(cl, 0.0, 1.0, 0.5, 1.0, 1.0, ph * (1.0 + s)) for s in (-1e-7, 1e-7)]
    at_pole = gs_lt_two_sided(cl, 0.0, 1.0, 0.5, 1.0, 1.0, ph)
    assert at_pole == pytest.approx(sum(near) / 2, rel=1e-12)


@pytest.mark.parametrize("theta", [1e155, 1e300])
@pytest.mark.parametrize("name", ["bm_a", "bm_b"])
def test_gs_lt_two_sided_at_huge_theta_is_its_limit(name, theta):
    # psi(theta) overflows on Brownian models from theta of about 1e155; X_rho < 0, so
    # the value tends to 0 there.  Below it the value falls as 1/theta^2, and keeps
    # its digits where psi_{q+lam}(theta) psi_{q+p}(theta) alone overflows (from
    # theta of about 1e77) down to theta = 1e154, where it is about 1e-309
    model = MODELS[name]
    for x in (0.5, 0.0, -0.5):
        ref = 1e70 ** 2 * gs_lt_two_sided(model, x, 1.0, 0.5, 1.0, 1.0, 1e70)
        for th in (1e77, 1e100, 1e153, 1e154):
            got = th * th * gs_lt_two_sided(model, x, 1.0, 0.5, 1.0, 1.0, th)
            assert got == pytest.approx(ref, rel=1e-9), (x, th)
        assert gs_lt_two_sided(model, x, 1.0, 0.5, 1.0, 1.0, theta) == 0.0
        assert gs_lt_two_sided_e2(model, x, 1.0, 0.5, 1.0, theta) == 0.0


def test_gs_lt_infinite_q_to_zero_matches_ruin_probability(model):
    x, p, lam = 0.6, 1.0, 1.0
    v = gs_lt_infinite(model, x, 1e-6, p, lam, 0.0)
    assert v == pytest.approx(ruin_prob_sum_exp(model, x, p, lam), abs=1e-4)


def test_gs_lt_infinite_far_start_vanishes(model):
    assert gs_lt_infinite(model, 40.0, 0.5, 1.0, 1.0, 0.0) < 1e-6


def test_gs_lt_infinite_theta_zero_q_zero_is_regular(model):
    # theta = 0 = Phi_0 is a removable point under positive drift
    v = gs_lt_infinite(model, 0.5, 0.0, 1.0, 1.0, 0.0)
    assert v == pytest.approx(ruin_prob_sum_exp(model, 0.5, 1.0, 1.0), rel=1e-9)


def test_up_cross_three_barrier_values(model):
    assert up_cross_three_barrier(model, 2.0, 2.0, 1.0, 0.05, 0.5, 1.0) == 1.0
    v1 = up_cross_three_barrier(model, 0.5, 2.0, 50.0, 0.05, 0.5, 1.0)
    v2 = up_cross_before_ruin(model, 0.5, 2.0, 0.05, 0.5, 1.0)
    assert v1 == pytest.approx(v2, abs=1e-6)
    with pytest.raises(DomainError):
        up_cross_three_barrier(model, -2.0, 2.0, 1.0, 0.05, 0.5, 1.0)


def test_barrier_at_zero_exact_on_brownian(bm, cl):
    # W_q(0) is exactly 0 with a Gaussian part and 1/c without one, so a lower
    # barrier at the ruin level gives exact zeros from x = 0, not rounding noise
    assert w(scale_context(bm, 0.1), 0.0) == 0.0
    assert w(scale_context(cl, 0.1), 0.0) == 1.0
    assert up_cross_three_barrier(bm, 0.0, 2.0, 0.0, 0.1, 0.7, 1.3) == 0.0
    assert upcross_before_t0_two_sided(bm, 0.0, 2.0, 0.0, 0.1, 1.0) == 0.0
    v = up_cross_three_barrier(bm, 1e-300, 2.0, 1e-300, 0.1, 1.3, 1.3)  # was 0/0
    assert v == 0.0 and math.copysign(1.0, v) == 1.0


def test_up_cross_three_barrier_confluent_p_equals_lam(cl):
    v0 = up_cross_three_barrier(cl, 0.5, 2.0, 1.0, 0.05, 1.0, 1.0)
    vp = up_cross_three_barrier(cl, 0.5, 2.0, 1.0, 0.05, 1.0 + 1e-4, 1.0)
    vm = up_cross_three_barrier(cl, 0.5, 2.0, 1.0, 0.05, 1.0 - 1e-4, 1.0)
    assert v0 == pytest.approx(0.5 * (vp + vm), rel=1e-8)
    # a -> inf at the confluence matches the Erlang(2) two-sided ratio
    vbig = up_cross_three_barrier(cl, 0.5, 2.0, 50.0, 0.05, 1.0, 1.0)
    assert vbig == pytest.approx(up_cross_e2(cl, 0.5, 2.0, 0.05, 1.0), abs=1e-9)


def test_up_cross_before_ruin_shares_code_path(model):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = float(rng.uniform(-1.0, 1.5))
        b = x + float(rng.uniform(0.1, 2.0))
        q = float(rng.uniform(0.0, 1.0))
        p = float(rng.uniform(0.1, 3.0))
        lam = float(rng.uniform(0.1, 3.0))
        assert up_cross_before_ruin(model, x, b, q, p, lam) == joint_lt_upcross(
            model, x, b, q, p, lam
        )


def test_gerber_shiu_density_contracts(cl):
    assert gerber_shiu_density(cl, 2.0, 2.0, 0.1, 0.7, 1.3, -0.5) == pytest.approx(0.0, abs=1e-12)
    # the density decays in |y| without a cancellation floor, and W(0) = 0 on Brownian
    # models makes it exactly 0 at y = 0 there
    for key, model in MODELS.items():
        for y in (-0.1, -0.5, -1.0, -2.0, -5.0, -10.0, -20.0):
            assert gerber_shiu_density(model, 0.5, 2.0, 0.1, 0.7, 1.3, y) > 0.0, (key, y)
        for x in (0.5, -0.5) if model.sigma > 0.0 else ():
            assert gerber_shiu_density(model, x, 2.0, 0.1, 0.7, 1.3, 0.0) == 0.0, key
            assert gs_density_e2(model, x, 2.0, 0.1, 1.3, 0.0) == 0.0, key
    # p = lam is the Erlang(2) delay
    assert gerber_shiu_density(cl, 0.5, 2.0, 0.1, 1.3, 1.3, -0.5) == gs_density_e2(
        cl, 0.5, 2.0, 0.1, 1.3, -0.5)
    with pytest.raises(DomainError):
        gerber_shiu_density(cl, 0.5, 2.0, 0.1, 0.7, 1.3, 0.5)  # y > 0


def test_gerber_shiu_duality(cl):
    # integrating e^{theta y} against the density reproduces the joint transform
    x, b, q, p, lam = 0.5, 2.0, 0.1, 0.7, 1.3
    for theta in (0.0, 0.5):
        val, _ = quad(
            lambda y: math.exp(theta * y) * gerber_shiu_density(cl, x, b, q, p, lam, y),
            -14.0, 0.0, limit=200,
        )
        assert val == pytest.approx(gs_lt_two_sided(cl, x, b, q, p, lam, theta), abs=1e-4)


def test_lt_occupation_exp_horizon(model):
    assert lt_occupation_exp_horizon(model, 0.5, 0.0, 0.2, 1.0) == 1.0
    with pytest.raises(DomainError):
        lt_occupation_exp_horizon(model, 0.5, 1.0, 0.0, 1.0)
    # lam -> inf recovers the continuously observed occupation up to e_q
    x, p, q = 0.5, 1.0, 0.2
    ctx = scale_context(model, q)
    phq, phpq = phi(model, q), phi(model, q + p)
    target = 1.0 - (p / (p + q)) * (
        z(ctx, x, 0.0) - q * (phpq - phq) / (p * phq) * z(ctx, x, phpq)
    )
    assert lt_occupation_exp_horizon(model, x, p, q, 1e4) == pytest.approx(target, rel=1e-2)


def test_lt_occupation_exp_horizon_no_drift_needed():
    sinking = LevyModel.cramer_lundberg(0.25, 1.0, 2.0)
    v = lt_occupation_exp_horizon(sinking, 0.5, 1.0, 0.5, 1.0)
    assert 0.0 < v < 1.0


def test_ruin_prob_erlang2_values(bm):
    assert ruin_prob_erlang2(bm, 0.0, 2.0) == pytest.approx(0.25, rel=1e-13)
    # derived independently: 1 - E[X_1] (Phi^2/lam^2) psi'(Phi) at x = 0
    ph = phi(bm, 2.0)
    assert ruin_prob_erlang2(bm, 0.0, 2.0) == pytest.approx(
        1.0 - bm.mean() * ph * ph / 4.0 * psi_prime(bm, ph), rel=1e-13
    )


def test_ruin_prob_erlang2_is_confluent_limit(model):
    x, lam = 0.4, 1.3
    v = ruin_prob_erlang2(model, x, lam)
    for eps in (1e-6, -1e-6):
        assert ruin_prob_sum_exp(model, x, lam * (1.0 + eps), lam) == pytest.approx(v, abs=1e-5)


def test_delay_ordering_chain(model):
    # tau_0^- >= T_0^- >= rho^(p,lam) >= rho^(2) in ruin probability, p >= lam
    ctx0 = scale_context(model, 0.0)
    for x, lam in itertools.product((0.0, 0.5, 2.0), (0.5, 1.0, 3.0)):
        p = 2.0 * lam
        ph = phi(model, lam)
        p_tau = 1.0 - model.mean() * w(ctx0, x)
        p_t0 = 1.0 - model.mean() * (ph / lam) * z(ctx0, x, ph)
        p_rho = ruin_prob_sum_exp(model, x, p, lam)
        p_e2 = ruin_prob_erlang2(model, x, lam)
        assert p_tau >= p_t0 >= p_rho >= p_e2


def test_up_cross_e2_trivial(model):
    assert up_cross_e2(model, 2.0, 2.0, 0.1, 1.3) == 1.0


def test_gs_density_e2_contracts(cl):
    assert gs_density_e2(cl, 2.0, 2.0, 0.1, 1.3, -0.5) == pytest.approx(0.0, abs=1e-10)
    for y in (-0.1, -0.5, -1.5, -3.0):
        assert gs_density_e2(cl, 0.5, 2.0, 0.1, 1.3, y) >= 0.0


def test_gs_density_e2_is_p_to_lam_limit(cl):
    args = (0.5, 2.0, 0.1)
    lam, y = 1.3, -0.8
    v = gs_density_e2(cl, *args, lam, y)
    near = 0.5 * (
        gerber_shiu_density(cl, *args, lam * (1.0 + 1e-4), lam, y)
        + gerber_shiu_density(cl, *args, lam * (1.0 - 1e-4), lam, y)
    )
    assert v == pytest.approx(near, rel=1e-5)


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore:.*roundoff.*", "ignore:.*subdivisions.*")
def test_gs_density_e2_duality(cl):
    x, b, q, lam = 0.5, 2.0, 0.1, 1.3
    for theta in (0.0, 0.5):
        val, _ = quad(
            lambda y: math.exp(theta * y) * gs_density_e2(cl, x, b, q, lam, y),
            -12.0, 0.0, limit=120,
        )
        assert val == pytest.approx(gs_lt_two_sided_e2(cl, x, b, q, lam, theta), abs=2e-4)


def test_remark_closed_check_corrected(model):
    # E[e^{-q rho2}; rho2 < inf] at x = 0 equals
    # lam/(lam+q) - (q/(lam+q)^2) Phi_{lam+q}(Phi_{lam+q}-Phi_q) psi'(Phi_{lam+q})/Phi_q
    for q, lam in itertools.product((0.2, 0.5, 1.0), (0.5, 1.0, 2.0)):
        ph = phi(model, q + lam)
        phq = phi(model, q)
        closed = lam / (lam + q) - (q / (lam + q) ** 2) * ph * (ph - phq) * psi_prime(
            model, ph
        ) / phq
        assert gs_lt_infinite_e2(model, 0.0, q, lam, 0.0) == pytest.approx(closed, abs=1e-8)


def test_erlang_recursion_consistency(model):
    x, lam = 0.4, 1.3
    r1 = ruin_prob_erlang_n(model, x, lam, 1)
    ctx0 = scale_context(model, 0.0)
    ph = phi(model, lam)
    pruine1 = 1.0 - model.mean() * (ph / lam) * z(ctx0, x, ph)
    assert r1 == pytest.approx(pruine1, abs=1e-12)
    r2 = ruin_prob_erlang_n(model, x, lam, 2)
    assert r2 == pytest.approx(ruin_prob_erlang2(model, x, lam), abs=1e-8)
    # a longer delay leaves less ruin, at every n
    values = [ruin_prob_erlang_n(model, x, lam, n) for n in range(1, 9)]
    assert all(a >= b for a, b in zip(values, values[1:])), values


def test_deficit_transforms_match_limit_evaluations(model):
    # the closed theta = Phi_lam limits agree with nearby evaluations of the
    # generic transforms
    x, lam = 0.3, 1.0
    ph = phi(model, lam)
    t1 = deficit_transform_t0(model, x, lam)
    near = gs_lt_infinite(model, x, 0.0, 1e7, lam, ph * (1.0 - 1e-6))
    assert t1 == pytest.approx(near, rel=1e-3)
    t2 = deficit_transform_erlang2(model, x, lam)
    near2 = 0.5 * (
        gs_lt_infinite_e2(model, x, 0.0, lam, ph * (1.0 - 1e-4))
        + gs_lt_infinite_e2(model, x, 0.0, lam, ph * (1.0 + 1e-4))
    )
    assert t2 == pytest.approx(near2, rel=1e-6)


def test_fixed_delay_examples(bm):
    res = fixed_delay_approx(bm, 0.5, 1e-4, 1)
    classical = 1.0 - bm.mean() * w(scale_context(bm, 0.0), 0.5)
    assert res.value == pytest.approx(classical, abs=1e-2)
    # n = 1 is exactly exponential-delay Parisian ruin at rate 1/r
    r = 2.0
    res = fixed_delay_approx(bm, 0.5, r, 1)
    assert res.value == ruin_prob_erlang_n(bm, 0.5, 1.0 / r, 1)
    seq = fixed_delay_approx(bm, 0.5, 1.0, 2).sequence
    assert [n for n, _ in seq] == [1, 2]


@pytest.mark.parametrize("n, ns", [(1, [1]), (3, [1, 2, 3]), (64, [1, 2, 4, 8, 16, 32, 64]),
                                   (100, [1, 2, 4, 8, 16, 32, 64, 100])])
def test_fixed_delay_sequence_is_erlang_n_bit_for_bit(model, n, ns):
    # the sequence shares one set-up, and each entry is still Erlang(n_k, n_k / r) ruin
    for x, r in ((0.5, 1.0), (0.0, 0.3), (-0.4, 2.0)):
        res = fixed_delay_approx(model, x, r, n)
        assert [nk for nk, _ in res.sequence] == ns
        assert [v for _, v in res.sequence] == [ruin_prob_erlang_n(model, x, nk / r, nk)
                                                for nk in ns]
        assert res.value == res.sequence[-1][1]


@pytest.mark.parametrize("name", ["bm_a", "bm_b", "cl_a", "cl_b"])
def test_fixed_delay_sequence_converges_to_exact_law_at_rate_one_over_n(name):
    # the Erlang(n, n/r) delays tend to the fixed delay r from above, with an error
    # about C/n: each doubling of n halves it
    model = MODELS[name]
    exact = fixed_delay_ruin(model, 0.5, 1.0)
    errs = [v - exact for _, v in fixed_delay_approx(model, 0.5, 1.0, 64).sequence]
    assert all(e > 0.0 for e in errs)
    ratios = [e / e_next for e, e_next in zip(errs, errs[1:])]
    assert [abs(q - 2.0) for q in ratios[3:]] == sorted((abs(q - 2.0) for q in ratios[3:]),
                                                        reverse=True)
    assert ratios[-1] == pytest.approx(2.0, abs=0.02)


def test_fixed_delay_oracle_values(bm, cl):
    # 30-digit quadrature of the exact law at x = 0.5, r = 1
    assert fixed_delay_ruin(cl, 0.5, 1.0) == pytest.approx(0.128039742, abs=1e-9)
    assert fixed_delay_ruin(bm, 0.5, 1.0) == pytest.approx(0.100937283, abs=1e-9)


def test_erlang_n_ruin_below_zero_at_large_rates(cl):
    # Phi / gap = 0.9998: the series of the clock points before tau_0^+ needs more
    # than 65536 terms here, and 1 - head is exact to a few ulp; a 60-digit evaluation
    # of the recursion gives 0.49730828951975532
    assert ruin_prob_erlang_n(cl, -1e-3, 1e4, 64) == pytest.approx(
        0.49730828951975532, rel=1e-13)
    # where 1 - head is not within 1e-14 of the value the series runs, and it is
    # capped: at n = 100 its rounding could reach 6e-15 of 1 against a value of 0.497
    with pytest.raises(NumericalError, match="4096 terms"):
        ruin_prob_erlang_n(cl, -1e-3, 1e4, 100)
    # where the series converges it is still the value (0.5261354643046049 at 60 digits)
    assert ruin_prob_erlang_n(cl, -0.5, 100.0, 64) == pytest.approx(
        0.5261354643046044, rel=1e-14)


def test_rates_absorbed_by_q_are_numerical_errors(cl):
    # q + 1 rounds to q + 2 or q at q = 1e16; up to 1e15 the rate keeps every digit
    for q in (1e8, 1e15):
        assert delayed_w_functional(cl, 0.5, 1.0, 1.0, q, 1.0, 1.0, 0.5) * q * q == \
            pytest.approx(0.39931, rel=1e-4)
    with pytest.raises(NumericalError, match="absorbs"):
        delayed_w_functional(cl, 0.5, 1.0, 1.0, 1e16, 1.0, 1.0, 0.5)


def test_appendix_trivial_and_limits(model):
    assert upcross_before_t0(model, 2.0, 2.0, 0.1, 1.0) == 1.0
    assert upcross_before_t0_two_sided(model, 2.0, 2.0, 1.0, 0.1, 1.0) == 1.0
    v1 = upcross_before_t0_two_sided(model, 0.5, 2.0, 50.0, 0.1, 1.0)
    v2 = upcross_before_t0(model, 0.5, 2.0, 0.1, 1.0)
    assert v1 == pytest.approx(v2, abs=1e-6)


def test_t0_joint_lt_pole(cl):
    # theta = Phi_{q+lam} is removable: the value there is the theta-derivative form
    ph = phi(cl, 0.3 + 1.0)
    with mpmath.workdps(50):
        for x in (0.5, -0.5):
            exact = Exact(cl, 0.3).t0_joint_lt(x, 2.0, 1.0, ph)
            assert t0_joint_lt(cl, x, 2.0, 0.3, 1.0, ph) == pytest.approx(float(exact), rel=1e-12)


def test_delayed_w_functional_confluence(model):
    # p = q + lam is removable; the offset route must agree with nearby values
    x, b, a, q, lam, zs = 0.5, 2.0, 1.0, 0.3, 1.0, 0.8
    pole = q + lam
    v0 = delayed_w_functional(model, x, b, a, q, lam, pole, zs)
    vp = delayed_w_functional(model, x, b, a, q, lam, pole * (1.0 + 1e-4), zs)
    vm = delayed_w_functional(model, x, b, a, q, lam, pole * (1.0 - 1e-4), zs)
    assert v0 == pytest.approx(0.5 * (vp + vm), rel=1e-5)
    with pytest.raises(DomainError):
        delayed_w_functional(model, x, b, a, q, lam, 1.0, 0.0)  # z must be positive


def test_delayed_w_functional_rejects_z_beyond_lower_barrier(model):
    # for z > a the formula disagrees with its Monte Carlo counterpart T0_w_weight
    # (z scores -11.3 at z = 1.5 and -100 at z = 2.6 on cl) and can go negative
    x, b, a, q, lam, p = 0.5, 2.0, 1.0, 0.1, 1.3, 0.7
    assert math.isfinite(delayed_w_functional(model, x, b, a, q, lam, p, a))
    for zs in (math.nextafter(a, 2.0), 1.5, 2.6):
        with pytest.raises(DomainError, match="z <= a"):
            delayed_w_functional(model, x, b, a, q, lam, p, zs)


def test_delayed_w_functional_takes_w_p_at_p(cl):
    # the p part is W_p at p itself: at q = 1e16, q + (p - q) rounds to 0 and
    # used to give W_0, so q^2 times the value jumped from 0.79862 to 0.57900
    def scaled(q):
        return q * q * delayed_w_functional(cl, 0.5, 1.0, 1.0, q, 2.0, 1.0, 0.5)

    assert scaled(1e16) == pytest.approx(scaled(1e14), rel=1e-9)


def test_alternative_erlang2_forms_disagree(bm, cl):
    # the printed per-model worked-example formulas are inconsistent with the
    # confluent identity (and with simulation); keep the gap on record
    assert abs(erlang2_ruin_alternative_form(bm, 0.0, 2.0) - ruin_prob_erlang2(bm, 0.0, 2.0)) > 0.05
    assert abs(erlang2_ruin_alternative_form(cl, 0.0, 1.0) - ruin_prob_erlang2(cl, 0.0, 1.0)) > 0.05


def test_up_cross_three_barrier_at_ruin_level(model):
    # a = 0: the lower barrier is the ruin level, so the ratio is W_q(x)/W_q(b); on
    # Brownian models the composite is 0/0 there (W(0) = 0)
    ctx = scale_context(model, 0.1)
    target = w(ctx, 0.5) / w(ctx, 2.0)
    for p, lam in ((0.5, 1.0), (0.7, 1.3), (1.0, 1.0)):
        assert up_cross_three_barrier(model, 0.5, 2.0, 0.0, 0.1, p, lam) == target
        near = up_cross_three_barrier(model, 0.5, 2.0, 1e-7, 0.1, p, lam)
        assert near == pytest.approx(target, abs=1e-6)


def test_up_cross_three_barrier_confluence_both_models(model):
    for x, a in ((0.5, 1.0), (-0.4, 0.6)):
        v0 = up_cross_three_barrier(model, x, 2.0, a, 0.2, 1.3, 1.3)
        vp = up_cross_three_barrier(model, x, 2.0, a, 0.2, 1.3 * (1.0 + 1e-4), 1.3)
        vm = up_cross_three_barrier(model, x, 2.0, a, 0.2, 1.3 * (1.0 - 1e-4), 1.3)
        assert v0 == pytest.approx(0.5 * (vp + vm), rel=1e-8)


def test_erlang2_identities_are_the_p_equals_lam_case(model):
    x, b, q, lam, theta = 0.4, 2.0, 0.3, 1.3, 0.5
    assert ruin_prob_erlang2(model, x, lam) == ruin_prob_sum_exp(model, x, lam, lam)
    assert up_cross_e2(model, x, b, q, lam) == joint_lt_upcross(model, x, b, q, lam, lam)
    assert gs_lt_two_sided_e2(model, x, b, q, lam, theta) == gs_lt_two_sided(
        model, x, b, q, lam, lam, theta
    )
    assert gs_lt_infinite_e2(model, x, q, lam, theta) == gs_lt_infinite(
        model, x, q, lam, lam, theta
    )


def test_gs_density_e2_is_p_to_lam_limit_both_models(model):
    x, b, q, lam = 0.5, 2.0, 0.1, 1.3
    for y in (-0.2, -1.0):
        v = gs_density_e2(model, x, b, q, lam, y)
        near = 0.5 * (
            gerber_shiu_density(model, x, b, q, lam * (1.0 + 1e-4), lam, y)
            + gerber_shiu_density(model, x, b, q, lam * (1.0 - 1e-4), lam, y)
        )
        assert v == pytest.approx(near, rel=1e-7)


def test_gs_density_e2_deep_deficit_values(bm, cl):
    # reference values from a 60-digit evaluation of the Exp(p)+Exp(lam) density at
    # p = lam + 1e-25 with quadrature convolutions
    assert gs_density_e2(cl, -1.0, 3.0, 0.05, 3.0, -4.0) == pytest.approx(
        2.58994320846e-3, rel=1e-5
    )
    assert gs_density_e2(bm, -1.0, 3.0, 0.05, 3.0, -7.0) == pytest.approx(
        4.45117623006e-6, rel=1e-5
    )
