import concurrent.futures
import math

import numpy as np
import pytest

from levyruin import (
    DomainError,
    UnsupportedFunctional,
    delayed_w_functional,
    gs_lt_infinite,
    lt_occupation_exp_horizon,
    lt_occupation_inf,
    phi,
    t0_joint_lt,
    up_cross_three_barrier,
    upcross_before_t0,
)
from levyruin.mc import (
    EscapeLevel,
    McConfig,
    PathFunctional,
    Stream,
    build_simulator,
    classical_ruin_bound,
    default_escape_level,
    estimate,
    sample,
)
from levyruin.mc import driver
from levyruin.registry import IDENTITIES, validatable_names

from fixed_delay import fixed_delay_ruin

CL_CFG = McConfig(replications=60_000, seed=424242, horizon=EscapeLevel(13.0))
BM_CFG = McConfig(replications=60_000, seed=424242, horizon=EscapeLevel(26.0))


def cfg_for(model, reps=60_000, seed=424242):
    return CL_CFG if model.kind == "cramer_lundberg" else BM_CFG


def assert_within(est, target, k=3.0):
    tol = k * est.std_error + est.truncation_bound
    assert abs(est.value - target) <= tol, (
        f"estimate {est.value} vs {target}: |z| = "
        f"{abs(est.value - target) / max(est.std_error, 1e-300):.2f}"
    )


def test_stream_determinism_and_antithetics():
    a = Stream(7, 3)
    b = Stream(7, 3)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    plain = Stream(7, 3)
    anti = Stream(7, 3, antithetic=True)
    u = plain.uniform()
    assert anti.uniform() == pytest.approx(1.0 - u, abs=1e-12)
    assert Stream(7, 4).normal() == pytest.approx(-Stream(7, 4, antithetic=True).normal(), rel=1e-12)


def test_estimate_deterministic_and_worker_invariant(cl):
    fn = PathFunctional("rho_sum_exp", {"p": 1.0, "lam": 1.0}, x0=0.5)
    cfg = McConfig(replications=12_000, seed=99, horizon=EscapeLevel(12.0))
    one = estimate(cl, cfg, fn, workers=1)
    again = estimate(cl, cfg, fn, workers=1)
    eight = estimate(cl, cfg, fn, workers=8)
    assert one == again == eight


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs each
    submitted call in this process, so no process is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result(fn(*args))
        return fut


def test_pool_has_one_process_per_block_range(cl, monkeypatch):
    # a pool started all its workers at the first submit under fork, so a
    # two-block campaign asked for 64 workers would fork 64 processes
    monkeypatch.setattr(driver, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    fn = PathFunctional("rho_sum_exp", {"p": 1.0, "lam": 1.0}, x0=0.5)
    cfg = McConfig(replications=4096 + 10, seed=99, horizon=EscapeLevel(12.0))
    assert estimate(cl, cfg, fn, workers=64) == estimate(cl, cfg, fn, workers=1)
    estimate(cl, McConfig(replications=3 * 4096, seed=99, horizon=EscapeLevel(12.0)), fn,
             workers=2)
    assert _InlinePool.sizes == [2, 2]


def test_config_counts_must_be_integers():
    # a float count once ended in a TypeError from inside the driver
    for kw, field in ((dict(replications=1000.0, seed=1), "replications"),
                      (dict(replications=1000, seed=1.5), "seed")):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            McConfig(horizon=EscapeLevel(5.0), **kw)
    McConfig(replications=np.int64(10), seed=np.uint64(2**64 - 1), horizon=EscapeLevel(5.0))


def test_clt_scaling(cl):
    fn = PathFunctional("rho_sum_exp", {"p": 1.0, "lam": 1.0}, x0=0.5)
    small = estimate(cl, McConfig(replications=20_000, seed=5, horizon=EscapeLevel(12.0)), fn)
    large = estimate(cl, McConfig(replications=80_000, seed=5, horizon=EscapeLevel(12.0)), fn)
    assert large.std_error == pytest.approx(small.std_error / 2.0, rel=0.2)


def test_degenerate_event_has_zero_std_error(cl, bm):
    est = estimate(cl, cfg_for(cl, 2000), PathFunctional("tau_b_plus", {"b": 0.5}, x0=1.0))
    assert est.value == 1.0 and est.std_error == 0.0
    # continuous paths with positive drift always cross: estimate exactly 1 at any seed
    est = estimate(bm, McConfig(replications=4000, seed=77, horizon=EscapeLevel(26.0)),
                   PathFunctional("tau_b_plus", {"b": 1.0}, x0=0.0))
    assert est.value == 1.0 and est.std_error == 0.0


def test_classical_ruin_cl(cl):
    # psi(u) = eta/(c alpha) e^{-(alpha - eta/c) u}, u the distance to the level
    for level, x0 in ((0.0, 0.0), (-0.5, 0.3)):
        est = estimate(cl, cfg_for(cl), PathFunctional("tau_level_minus", {"level": level}, x0=x0))
        u = x0 - level
        assert_within(est, cl.eta / (cl.c * cl.alpha) * math.exp(-(cl.alpha - cl.eta / cl.c) * u))


def test_classical_ruin_bm(bm):
    # below a negative level the skeleton's negative points start no excursion
    for level, x0 in ((0.0, 0.5), (-0.5, 0.3)):
        est = estimate(bm, cfg_for(bm), PathFunctional("tau_level_minus", {"level": level}, x0=x0))
        assert_within(est, math.exp(-2.0 * bm.mu * (x0 - level) / bm.sigma ** 2))


def test_occupation_union_matches_transform_literal_does_not(cl):
    # the once-per-excursion accrual (the union of the observations' recovery
    # runs) matches the closed form; the literal overlapping sum, which does not,
    # is no longer simulated (README, "Occupation accrual")
    x, p, lam = 0.0, 1.0, 1.0
    target = lt_occupation_inf(cl, x, p, lam)
    union = estimate(cl, cfg_for(cl), PathFunctional(
        "occupation_poisson", {"lam": lam}, x0=x, laplace_p=p))
    assert_within(union, target)


def test_literal_occupation_is_not_a_functional(bm, cl):
    for model in (bm, cl):
        with pytest.raises(UnsupportedFunctional, match="occupation_poisson_literal"):
            build_simulator(model, PathFunctional("occupation_poisson_literal", {"lam": 1.0},
                                                  x0=0.0), cfg_for(model))


@pytest.mark.parametrize("horizon", [None, 4.0, (12.0,), "escape"])
def test_horizon_must_be_an_escape_level(horizon):
    with pytest.raises(DomainError, match="EscapeLevel"):
        McConfig(replications=10, seed=1, horizon=horizon)


def test_t0_joint_transform_both_models(bm, cl):
    for model in (bm, cl):
        x, b, q, lam, theta = 0.3, 1.5, 0.2, 1.0, 0.5
        target = t0_joint_lt(model, x, b, q, lam, theta)
        est = estimate(model, cfg_for(model), PathFunctional(
            "T0_minus", {"lam": lam, "b": b}, x0=x, discount_q=q, tilt_theta=theta))
        assert_within(est, target)


def test_upcross_before_t0(cl):
    x, b, q, lam = 0.0, 1.0, 0.3, 1.0
    target = upcross_before_t0(cl, x, b, q, lam)
    est = estimate(cl, cfg_for(cl), PathFunctional(
        "T0_minus", {"lam": lam, "b": b}, x0=x, success_event="upcross", discount_q=q))
    assert_within(est, target)


def test_up_cross_three_barrier_mc(cl):
    x, b, a, q, p, lam = 0.5, 2.0, 1.0, 0.05, 0.5, 1.0
    target = up_cross_three_barrier(cl, x, b, a, q, p, lam)
    est = estimate(cl, cfg_for(cl), PathFunctional(
        "rho_sum_exp", {"p": p, "lam": lam, "b": b, "a": a}, x0=x,
        success_event="upcross", discount_q=q))
    assert_within(est, target)


def test_gs_lt_infinite_mc(cl):
    x, q, p, lam = 1.0, 0.5, 1.0, 1.0
    target = gs_lt_infinite(cl, x, q, p, lam, 0.0)
    est = estimate(cl, cfg_for(cl), PathFunctional(
        "rho_sum_exp", {"p": p, "lam": lam}, x0=x, discount_q=q))
    assert_within(est, target)


def test_occupation_exp_horizon_mc(cl):
    x, p, q, lam = 0.5, 1.0, 0.2, 1.0
    target = lt_occupation_exp_horizon(cl, x, p, q, lam)
    est = estimate(cl, cfg_for(cl), PathFunctional(
        "occupation_poisson", {"lam": lam, "exp_horizon_rate": q}, x0=x, laplace_p=p))
    assert_within(est, target)


def test_delayed_w_functional_mc(cl):
    x, b, a, q, lam, p, zs = 0.5, 2.0, 1.0, 0.1, 1.0, 0.7, 0.8
    target = delayed_w_functional(cl, x, b, a, q, lam, p, zs)
    est = estimate(cl, cfg_for(cl), PathFunctional(
        "T0_w_weight", {"lam": lam, "b": b, "a": a, "pw": p, "shift": zs},
        x0=x, discount_q=q))
    assert_within(est, target)


def test_deficit_transform_t0_mc(cl):
    x, lam = 0.3, 1.0
    from levyruin import deficit_transform_t0

    target = deficit_transform_t0(cl, x, lam)
    est = estimate(cl, cfg_for(cl), PathFunctional(
        "T0_minus", {"lam": lam}, x0=x, tilt_theta=phi(cl, lam)))
    assert_within(est, target)


def test_antithetic_campaign_runs(cl):
    fn = PathFunctional("occupation_poisson", {"lam": 1.0}, x0=0.0, laplace_p=1.0)
    cfg = McConfig(replications=20_000, seed=3, horizon=EscapeLevel(12.0), antithetic=True)
    est = estimate(cl, cfg, fn)
    assert_within(est, lt_occupation_inf(cl, 0.0, 1.0, 1.0))


def test_sample_matches_estimate(cl):
    fn = PathFunctional("rho_sum_exp", {"p": 1.0, "lam": 1.0}, x0=0.5)
    cfg = McConfig(replications=8192, seed=21, horizon=EscapeLevel(12.0))
    vals = sample(cl, cfg, fn)
    est = estimate(cl, cfg, fn)
    assert np.mean(vals) == pytest.approx(est.value, rel=1e-12)
    vals8 = sample(cl, cfg, fn, workers=8)
    assert np.array_equal(vals, vals8)


def test_escape_bound_reported_and_warns(cl):
    fn = PathFunctional("tau_level_minus", {"level": 0.0}, x0=0.0)
    low = McConfig(replications=4000, seed=2, horizon=EscapeLevel(2.0))
    with pytest.warns(UserWarning):
        est = estimate(cl, low, fn)
    assert est.truncation_bound > 0.0
    assert est.truncation_bound <= classical_ruin_bound(cl, 2.0)


def test_unsupported_brownian_functionals(bm):
    cfg = cfg_for(bm)
    with pytest.raises(UnsupportedFunctional):
        estimate(bm, cfg, PathFunctional("rho_sum_exp", {"p": 1.0, "lam": 1.0, "a": 1.0}, x0=0.0))
    with pytest.raises(UnsupportedFunctional):
        estimate(bm, cfg, PathFunctional("rho_sum_exp", {"p": 1.0, "lam": 1.0}, x0=0.0,
                                         tilt_theta=0.5))


def test_unknown_constructions_rejected(bm, cl):
    cfg_cl = McConfig(replications=10, seed=1, horizon=EscapeLevel(12.0))
    cfg_bm = McConfig(replications=10, seed=1, horizon=EscapeLevel(26.0))
    bad = (
        (cl, cfg_cl, "rho_sum_exp", {"p": 1.0}, "bogus", "'clock'"),
        (cl, cfg_cl, "rho_sum_exp", {"p": 1.0}, "observation", "'clock'"),
        (cl, cfg_cl, "rho_sum_exp", {"p": 1.0}, "occupation", "'clock'"),
        (cl, cfg_cl, "rho_erlang", {"n": 2}, "bogus", "'clock' or 'observation'"),
        (cl, cfg_cl, "T0_minus", {}, "clock", "no construction"),
        (bm, cfg_bm, "rho_sum_exp", {"p": 1.0}, "clock", "'occupation'"),
        (bm, cfg_bm, "rho_sum_exp", {"p": 1.0}, "bogus", "'occupation'"),
        (bm, cfg_bm, "rho_erlang", {"n": 2}, "bogus", "'observation' or 'clock'"),
        (bm, cfg_bm, "kappa_fixed", {"r": 1.0}, "clock", "no construction"),
    )
    for model, cfg, name, params, kind, allowed in bad:
        fn = PathFunctional(name, {"lam": 1.0, **params, "construction": kind}, x0=0.5)
        with pytest.raises(UnsupportedFunctional, match=allowed):
            sample(model, cfg, fn)
    # the defaults are unchanged: naming them gives the same draws as omitting them
    for model, cfg, name, kind in ((cl, cfg_cl, "rho_sum_exp", "clock"),
                                   (cl, cfg_cl, "rho_erlang", "clock"),
                                   (bm, cfg_bm, "rho_sum_exp", "occupation"),
                                   (bm, cfg_bm, "rho_erlang", "observation")):
        params = {"lam": 1.0, **({"p": 1.0} if name == "rho_sum_exp" else {"n": 2})}
        plain = sample(model, cfg, PathFunctional(name, params, x0=0.5))
        named = sample(model, cfg, PathFunctional(name, {**params, "construction": kind}, x0=0.5))
        assert np.array_equal(plain, named)


# functionals whose path never reads a field, per (simulator, field): no
# functional but the occupation ones accrues occupation, and those end at no
# deficit, stop at no lower barrier and, without b, at no stopping time; an
# up-crossing ends at no deficit either.  A third entry holds further
# PathFunctional fields.
_FIRST_PASSAGE = (("tau_b_plus", {"b": 2.0}), ("tau_level_minus", {"level": 0.0}))
_RUIN = (("rho_sum_exp", {"p": 1.0, "lam": 1.0}), ("rho_erlang", {"n": 2, "lam": 1.0}),
         ("kappa_fixed", {"r": 1.0}), ("T0_minus", {"lam": 1.0}))
_OCCUPATION = (("occupation_poisson", {"lam": 1.0}),
               ("occupation_poisson_n", {"lam": 1.0, "n": 2}),
               ("occupation_at_upcross", {"lam": 1.0, "b": 2.0}))
_UPCROSS = (("rho_sum_exp", {"p": 1.0, "lam": 1.0, "b": 2.0}, {"success_event": "upcross"}),
            ("T0_minus", {"lam": 1.0, "b": 2.0}, {"success_event": "upcross"}),
            ("tau_b_plus", {"b": 2.0}))
_NO_STOP = (("occupation_poisson", {"lam": 1.0}), ("occupation_poisson_n", {"lam": 1.0, "n": 2}))
_IGNORED = {
    ("cl", "laplace_p"): _RUIN + _FIRST_PASSAGE + (
        ("T0_w_weight", {"lam": 1.0, "b": 2.0, "a": 1.0, "pw": 0.7, "shift": 0.5}),),
    ("bm", "laplace_p"): _RUIN + _FIRST_PASSAGE,
    ("cl", "tilt_theta"): _OCCUPATION + _UPCROSS,
    ("bm", "tilt_theta"): _OCCUPATION + _UPCROSS + (("kappa_fixed", {"r": 1.0}),),
    ("cl", "a"): _OCCUPATION,
    ("cl", "discount_q"): _NO_STOP,
    ("bm", "discount_q"): _NO_STOP,
}


@pytest.mark.parametrize("case", sorted(_IGNORED), ids="-".join)
def test_ignored_fields_rejected(case, bm, cl):
    key, field = case
    model = {"bm": bm, "cl": cl}[key]
    cfg = McConfig(replications=10, seed=1, horizon=EscapeLevel(26.0))
    for name, params, *more in _IGNORED[case]:
        kw = more[0] if more else {}
        build_simulator(model, PathFunctional(name, params, x0=0.5, **kw), cfg)
        if field == "a":
            fn = PathFunctional(name, {**params, "a": 1.0}, x0=0.5, **kw)
        else:
            fn = PathFunctional(name, params, x0=0.5, **{field: 0.5, **kw})
        with pytest.raises(UnsupportedFunctional, match=f"never reads {field}"):
            build_simulator(model, fn, cfg)


def test_registry_functionals_build(bm, cl):
    # every functional the registry builds from in-domain parameters still builds:
    # all validatable identities on Cramer-Lundberg, nine on Brownian
    base = {"x": 0.5, "b": 2.0, "a": 1.0, "q": 0.1, "p": 0.7, "lam": 1.3, "theta": 0.5,
            "z": 0.5, "r": 1.0, "n": 3}
    cfg = McConfig(replications=10, seed=1, horizon=EscapeLevel(26.0))
    built_bm = set()
    for name in validatable_names():
        ident = IDENTITIES[name]
        fn = ident.mc_functional({p: base[p] for p in ident.params})
        build_simulator(cl, fn, cfg)
        try:
            build_simulator(bm, fn, cfg)
        except UnsupportedFunctional as exc:
            assert "never reads" not in str(exc), (name, exc)
        else:
            built_bm.add(name)
    assert built_bm == {
        "T0_joint_lt", "fixed_delay_approx", "gs_lt_infinite_e2", "gs_lt_two_sided_e2",
        "lt_occupation_exp_horizon", "lt_occupation_inf", "ruin_prob_erlang2",
        "ruin_prob_erlang_n", "ruin_prob_sum_exp",
    }


# every functional each simulator runs, with in-domain params
_STOPPING = {
    "bm": (("rho_sum_exp", {"p": 1.0, "lam": 1.0}), ("rho_erlang", {"n": 2, "lam": 1.0}),
           ("rho_erlang", {"n": 2, "lam": 1.0, "construction": "clock"}),
           ("kappa_fixed", {"r": 1.0}), ("T0_minus", {"lam": 1.0, "b": 2.0}),
           ("tau_b_plus", {"b": 2.0}), ("tau_level_minus", {"level": 0.0})),
    "cl": (("rho_sum_exp", {"p": 1.0, "lam": 1.0, "b": 2.0, "a": 1.0}),
           ("rho_erlang", {"n": 2, "lam": 1.0}),
           ("rho_erlang", {"n": 2, "lam": 1.0, "construction": "observation"}),
           ("kappa_fixed", {"r": 1.0}), ("T0_minus", {"lam": 1.0}),
           ("T0_w_weight", {"lam": 1.0, "b": 2.0, "a": 1.0, "pw": 0.7, "shift": 0.5}),
           ("tau_b_plus", {"b": 2.0}), ("tau_level_minus", {"level": 0.0})),
}
_ACCRUING = (("occupation_poisson", {"lam": 1.0}),
             ("occupation_poisson", {"lam": 1.0, "exp_horizon_rate": 0.5}),
             ("occupation_poisson_n", {"lam": 1.0, "n": 2}),
             ("occupation_at_upcross", {"lam": 1.0, "b": 2.0}))


@pytest.mark.parametrize("key", ["bm", "cl"])
def test_horizon_matrix(key, bm, cl):
    # an escape level needs positive drift unless an Exp horizon ends the path:
    # at zero drift only the Exp-horizon occupation runs, on Cramer-Lundberg
    # models (a Brownian recovery needs positive drift under any horizon)
    model = {"bm": bm, "cl": cl}[key]
    flat = type(model).brownian(0.0, 1.0) if key == "bm" else type(model).cramer_lundberg(
        1.0, 2.0, 2.0)
    escape = McConfig(replications=8, seed=1, horizon=EscapeLevel(10.0))
    for name, params in _STOPPING[key] + _ACCRUING:
        fn = PathFunctional(name, params, x0=0.5)
        if "exp_horizon_rate" not in params:
            with pytest.raises(DomainError, match="E\\[X_1\\] > 0"):
                build_simulator(flat, fn, escape)
        elif key == "cl":
            build_simulator(flat, fn, escape)
        else:
            with pytest.raises(DomainError, match="inverse-Gaussian recovery"):
                build_simulator(flat, fn, escape)


def test_brownian_kappa_fixed_rejects_b(bm, cl):
    # the fixed-delay loop has no upper barrier; the Cramer-Lundberg path stops at tau_b^+
    cfg = McConfig(replications=4000, seed=1, horizon=EscapeLevel(10.0))
    fn = PathFunctional("kappa_fixed", {"r": 0.25, "b": 0.6}, x0=0.5)
    with pytest.raises(UnsupportedFunctional, match="never reads b"):
        estimate(bm, cfg, fn)
    build_simulator(cl, fn, cfg)


@pytest.mark.parametrize("key", ["bm", "cl"])
def test_first_passages_reject_other_barriers(key, bm, cl):
    # a first passage stops at its own level alone
    model = {"bm": bm, "cl": cl}[key]
    cfg = McConfig(replications=10, seed=1, horizon=EscapeLevel(10.0))
    for name, params, field in (("tau_b_plus", {"b": 2.0, "a": 1.0}, "a"),
                                ("tau_level_minus", {"level": 0.0, "a": 1.0}, "a"),
                                ("tau_level_minus", {"level": 0.0, "b": 2.0}, "b")):
        with pytest.raises(UnsupportedFunctional, match=f"never reads {field}"):
            build_simulator(model, PathFunctional(name, params, x0=0.5), cfg)


def test_unknown_success_event_rejected(bm, cl):
    # any other spelling used to be read as "upcross"
    cfg = McConfig(replications=10, seed=1, horizon=EscapeLevel(10.0))
    for model in (bm, cl):
        fn = PathFunctional("T0_minus", {"lam": 1.0, "b": 2.0}, x0=0.5, success_event="Ruin")
        with pytest.raises(UnsupportedFunctional, match="'ruin' or 'upcross'"):
            build_simulator(model, fn, cfg)


def test_brownian_recovery_needs_positive_drift(bm):
    # the inverse-Gaussian recovery from below 0 exists only for mu > 0, even
    # where an Exp horizon ends the path; a ruin at the trigger itself samples none
    sink = type(bm).brownian(-0.2, 1.0)
    escape = McConfig(replications=50, seed=1, horizon=EscapeLevel(10.0))
    exp_horizon = {"lam": 1.0, "exp_horizon_rate": 0.5}
    for name, params in _ACCRUING:
        with pytest.raises(DomainError, match="inverse-Gaussian recovery"):
            build_simulator(sink, PathFunctional(name, {**params, **exp_horizon}, x0=0.5),
                            escape)
    with pytest.raises(DomainError, match="inverse-Gaussian recovery"):
        build_simulator(sink, PathFunctional("rho_sum_exp", {"p": 1.0, **exp_horizon}), escape)
    vals = sample(sink, escape, PathFunctional("T0_minus", exp_horizon, x0=0.5))
    assert set(vals) <= {0.0, 1.0} and 0.0 < vals.mean() < 1.0


def test_up_cross_e2_mc_brownian(bm):
    from levyruin import up_cross_e2

    x, b, lam = 0.0, 1.0, 2.0
    target = up_cross_e2(bm, x, b, 0.0, lam)
    est = estimate(bm, cfg_for(bm), PathFunctional(
        "rho_erlang", {"n": 2, "lam": lam, "b": b, "construction": "observation"},
        x0=x, success_event="upcross"))
    assert_within(est, target)


def test_gs_lt_two_sided_e2_mc(cl):
    from levyruin import gs_lt_two_sided_e2

    x, b, q, lam, theta = 0.3, 1.5, 0.2, 1.0, 0.5
    target = gs_lt_two_sided_e2(cl, x, b, q, lam, theta)
    est = estimate(cl, cfg_for(cl), PathFunctional(
        "rho_erlang", {"n": 2, "lam": lam, "b": b, "construction": "observation"},
        x0=x, discount_q=q, tilt_theta=theta))
    assert_within(est, target)


def test_kappa_fixed_cl_between_neighbours(cl):
    # exact fixed-delay ruin lies between the Erlang(n, n/r) approximations' trend
    est = estimate(cl, cfg_for(cl), PathFunctional("kappa_fixed", {"r": 1.0}, x0=0.5))
    from levyruin import ruin_prob_erlang_n

    lo = ruin_prob_erlang_n(cl, 0.5, 1.0, 1)  # Exp(1/r) delay: more ruin than fixed r
    assert est.value < lo
    assert est.value > 0.0


def _exact_law_campaign(model, reps, x=0.5, r=1.0):
    # kappa_fixed against the exact fixed-delay law, with the escape level of a
    # 1e-6 truncation bound
    cfg = McConfig(replications=reps, seed=20240120,
                   horizon=EscapeLevel(default_escape_level(model, 1e-6)))
    est = estimate(model, cfg, PathFunctional("kappa_fixed", {"r": r}, x0=x))
    return est, fixed_delay_ruin(model, x, r)


def test_kappa_fixed_cl_matches_exact_law(cl):
    # the event-driven Cramer-Lundberg clock is exact in law: only noise is left
    est, exact = _exact_law_campaign(cl, 100_000)
    assert_within(est, exact)


@pytest.mark.parametrize("key", ["bm_a", "bm_b"])
@pytest.mark.parametrize("x, r", [(0.5, 1.0), (0.0, 2.0), (-0.5, 0.5)])
def test_kappa_fixed_bm_matches_exact_law(key, x, r, bm):
    # the Brownian fixed-delay loop is exact in law and truncates nothing: only
    # noise is left, from above 0, at 0 and from below
    model = bm if key == "bm_a" else type(bm).brownian(0.3, 1.0)
    est, exact = _exact_law_campaign(model, 24_576, x, r)
    assert est.truncation_bound == 0.0
    assert abs(est.value - exact) <= 3.0 * est.std_error


def test_erlang_recursion_n4_against_rho_erlang(cl):
    from levyruin import ruin_prob_erlang_n

    value = ruin_prob_erlang_n(cl, 0.4, 1.0, 4)
    assert 0.0 < value <= ruin_prob_erlang_n(cl, 0.4, 1.0, 3)
    # direct MC of the n = 4 ruin probability agrees with the closed form
    est = estimate(cl, cfg_for(cl), PathFunctional(
        "rho_erlang", {"n": 4, "lam": 1.0, "construction": "observation"}, x0=0.4))
    assert_within(est, value)


# a request that plan accepts, per functional and simulator: the params column
# of the catalogue, with in-domain values
_PARAM_VALUES = {"lam": 1.0, "n": 2, "p": 1.0, "r": 1.0, "b": 2.0, "a": 1.0, "pw": 0.7,
                 "shift": 0.5, "level": 0.0}


@pytest.mark.parametrize("key", ["bm", "cl"])
def test_plan_checks_params_against_catalogue(key, bm, cl):
    from levyruin.mc.functionals import CATALOGUE, plan

    model = {"bm": bm, "cl": cl}[key]
    cfg = McConfig(replications=10, seed=1, horizon=EscapeLevel(26.0))
    for name, entry in CATALOGUE.items():
        if (entry.bm if key == "bm" else entry.cl) is None:
            continue
        params = {p: _PARAM_VALUES[p] for p in entry.params.split()}
        plan(model, PathFunctional(name, params, x0=0.5), cfg)
        for p in params:
            rest = {k: v for k, v in params.items() if k != p}
            with pytest.raises(UnsupportedFunctional, match=f"missing \\['{p}'\\]"):
                plan(model, PathFunctional(name, rest, x0=0.5), cfg)
        extra = [k for k in ("n", "p", "r", "lam", "level", "exp_horizon_rate", "bogus")
                 if k not in entry.params.split()]
        if not (entry.passage or (entry.delay_loop and key == "bm")):
            extra.remove("exp_horizon_rate")  # the excursion loop's Exp horizon
        for k in extra:
            with pytest.raises(UnsupportedFunctional, match=f"unknown \\['{k}'\\]"):
                plan(model, PathFunctional(name, {**params, k: 3}, x0=0.5), cfg)


@pytest.mark.parametrize("key", ["bm", "cl"])
def test_plan_rejects_non_finite_inputs(key, bm, cl):
    # each hung (x0 = nan, lam = inf, b = inf, which switches the escape level
    # off) or returned a silent 0 or nan before plan checked them; plan is called
    # directly, so a regression fails instead of hanging
    from levyruin.mc.functionals import plan

    model = {"bm": bm, "cl": cl}[key]
    cfg = McConfig(replications=4, seed=1, horizon=EscapeLevel(12.0))
    occ = ("occupation_poisson", {"lam": 1.0})
    rho = ("rho_sum_exp", {"p": 1.0, "lam": 1.0})
    bad = ((occ, dict(x0=math.nan), "x0"), (("occupation_poisson", {"lam": math.inf}), {}, "lam"),
           (("rho_sum_exp", {"p": 1.0, "lam": 1.0, "b": math.inf}), {}, "b"),
           (("tau_b_plus", {"b": math.inf}), {}, "b"),
           (("rho_sum_exp", {"p": 1.0, "lam": math.nan}), {}, "lam"),
           (rho, dict(x0=math.nan), "x0"), (rho, dict(discount_q=math.nan), "discount_q"),
           (occ, dict(laplace_p=math.inf), "laplace_p"),
           (("tau_level_minus", {"level": -math.inf}), {}, "level"),
           (("kappa_fixed", {"r": math.nan}), {}, "r"))
    if key == "cl":
        bad += ((rho, dict(tilt_theta=-math.inf), "tilt_theta"),)
    for (name, params), kw, field in bad:
        with pytest.raises(DomainError, match=f"requires a finite {field}, got"):
            plan(model, PathFunctional(name, params, **{"x0": 0.5, **kw}), cfg)
    # r = inf is kappa_fixed's delay that no path outlives
    plan(model, PathFunctional("kappa_fixed", {"r": math.inf}, x0=0.5), cfg)


@pytest.mark.parametrize("key", ["bm", "cl"])
def test_plan_rejects_clocks_out_of_range(key, bm, cl):
    # a rate of 0 divided by zero on the path, lam = -1 hung on Cramer-Lundberg
    # models, p = -1 gave a value, and n = 0 is the plan's first passage, whose
    # path never triggers
    from levyruin.mc.functionals import plan

    model = {"bm": bm, "cl": cl}[key]
    cfg = McConfig(replications=4, seed=1, horizon=EscapeLevel(12.0))
    for name, params, match in (
            ("occupation_poisson", {"lam": 0.0}, "lam > 0"),
            ("occupation_poisson", {"lam": -1.0}, "lam > 0"),
            ("occupation_poisson", {"lam": 1.0, "exp_horizon_rate": 0.0}, "exp_horizon_rate > 0"),
            ("rho_sum_exp", {"p": -1.0, "lam": 1.0}, "p > 0"),
            ("rho_erlang", {"n": 0, "lam": 1.0}, "integer n >= 1"),
            ("occupation_poisson_n", {"n": 2.5, "lam": 1.0}, "integer n >= 1")):
        with pytest.raises(DomainError, match=match):
            plan(model, PathFunctional(name, params, x0=0.5), cfg)


@pytest.mark.parametrize("key", ["bm", "cl"])
def test_kappa_fixed_delay_must_be_positive(key, bm, cl):
    # r = 0 would step by 0 forever in the Brownian loop, and r = -1 gave e^q with
    # se 0 on Cramer-Lundberg models; r = inf is a delay no path outlives, which
    # the Brownian loop pays 0 for without a draw
    from levyruin.mc.functionals import plan

    model = {"bm": bm, "cl": cl}[key]
    cfg = McConfig(replications=4, seed=1, horizon=EscapeLevel(12.0))
    for r in (0.0, -1.0):
        with pytest.raises(DomainError, match="r > 0"):
            plan(model, PathFunctional("kappa_fixed", {"r": r}, x0=0.5, discount_q=1.0), cfg)
    if key == "bm":
        fn = PathFunctional("kappa_fixed", {"r": math.inf}, x0=-0.5)
        assert build_simulator(bm, fn, cfg)(None) == (0.0, 0)
        est = estimate(bm, cfg, fn)
        assert (est.value, est.std_error, est.truncation_bound) == (0.0, 0.0, 0.0)


def test_kappa_fixed_bm_tiny_delay_and_start(bm):
    # the loop's first passages and ages form no d^2, which underflows to 0 for a
    # distance d below 1e-154: a subnormal delay, or a start next to 0, gives ruin
    # at once, as the classical ruin from 0 does
    cfg = McConfig(replications=200, seed=3, horizon=EscapeLevel(10.0))
    for r in (1e-12, 5e-324):
        for x in (1e-200, -1e-200, -5e-324):
            est = estimate(bm, cfg, PathFunctional("kappa_fixed", {"r": r}, x0=x))
            assert (est.value, est.std_error) == (1.0, 0.0), (r, x)


def test_plan_rejects_reproduced_param_mistakes(cl):
    # each ran before the catalogue's params were checked: a KeyError traceback,
    # a silent Erlang(3) trigger, and occupation accrued from the n-th observation
    cfg = McConfig(replications=10, seed=1, horizon=EscapeLevel(13.0))
    for name, params in (("T0_minus", {}), ("T0_minus", {"lam": 1.0, "n": 3}),
                         ("occupation_poisson", {"lam": 1.0, "n": 3})):
        with pytest.raises(UnsupportedFunctional, match="takes the params"):
            estimate(cl, cfg, PathFunctional(name, params, x0=0.5))
