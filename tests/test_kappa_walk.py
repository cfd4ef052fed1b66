"""The Brownian fixed-delay Euler walk against its step-by-step loop.

``make_kappa_grid_sim`` walks a whole stream read at a time; ``_scalar_kappa_sim``
below is the loop it replaced, one ``stream.normal()`` a step.  Both must give
the same (value, escape) bits for every replication.
"""

import math

import numpy as np
import pytest

from levyruin.mc import (EscapeLevel, McConfig, PathFunctional, Stream, default_escape_level,
                         estimate)
from levyruin.mc import driver
from levyruin.mc.brownian import _DelayClock, make_kappa_grid_sim


def _scalar_kappa_sim(model, fn, config, dt=None, runs=None):
    """The step-by-step walk; ``runs`` (a list) collects each negative run's
    first and last step as stream normal indices."""
    mu, sig = model.mu, model.sigma
    r_delay = float(fn.params["r"])
    q = fn.discount_q
    x0 = fn.x0
    besc = config.horizon.b_esc
    step = config.grid_dt if dt is None else dt
    sqdt = math.sqrt(step)

    def sim(stream):
        t = 0.0
        X = x0
        run = 0.0  # age of the current negative spell; delay clocks start at entry
        k = -1
        first = None
        while True:
            X += mu * step + sig * sqdt * stream.normal()
            t += step
            k += 1
            if X >= 0.0:
                if first is not None and runs is not None:
                    runs.append((first, k - 1))
                first = None
                run = 0.0
                if X >= besc:
                    return 0.0, 1
            else:
                if first is None:
                    first = k
                run += step
                if run > r_delay:
                    if runs is not None:
                        runs.append((first, k))
                    return math.exp(-q * t), 0

    return sim


def _both(model, fn, config, dt, reps, seed, antithetic=False, runs=None):
    walk = make_kappa_grid_sim(model, fn, config, dt=dt)
    ref = _scalar_kappa_sim(model, fn, config, dt=dt, runs=runs)
    a, b = Stream(seed, 0), Stream(seed, 0)
    out = []
    for idx in range(reps):
        key, flip = (idx >> 1, idx & 1 == 1) if antithetic else (idx, False)
        a.reset(seed, key, flip)
        b.reset(seed, key, flip)
        v, e = walk(a)
        w, f = ref(b)
        assert (v.hex(), e) == (w.hex(), f), (idx, v, w, e, f)
        out.append((v, e))
    return out


# normal-stream indices where a read of normal() ends (32, 64, 128, 256 values,
# then the rest of the first block) and where a later block starts, which is
# where each read of the walk ends
_READ_ENDS = (32, 96, 224, 480)
_BLOCK_STARTS = tuple(512 * j for j in range(1, 8))


def _straddles(runs, cuts):
    return any(lo < cut <= hi for lo, hi in runs for cut in cuts)


@pytest.mark.parametrize("halved", [False, True])
@pytest.mark.parametrize("x0", [0.5, -0.3])
def test_walk_matches_scalar_loop(bm, x0, halved):
    # long delays (J = 40 steps at dt, 80 at dt/2) on a slow drift to a far
    # escape level, so negative runs cross read and block boundaries
    model = type(bm).brownian(0.2, 1.0)
    cfg = McConfig(replications=1, seed=5, horizon=EscapeLevel(6.0), grid_dt=0.05)
    fn = PathFunctional("kappa_fixed", {"r": 2.0}, x0=x0, discount_q=0.1)
    runs = []
    dt = cfg.grid_dt / 2.0 if halved else None
    vals = _both(model, fn, cfg, dt, 400, seed=20240101, runs=runs)
    assert 0 < sum(e for _, e in vals) < len(vals)  # both escapes and ruins
    assert _straddles(runs, _READ_ENDS) and _straddles(runs, _BLOCK_STARTS)


def test_walk_matches_scalar_loop_antithetic(bm):
    cfg = McConfig(replications=2, seed=3, horizon=EscapeLevel(10.0), grid_dt=0.02,
                   antithetic=True)
    fn = PathFunctional("kappa_fixed", {"r": 0.25}, x0=0.2, discount_q=0.3)
    runs = []
    vals = _both(bm, fn, cfg, None, 600, seed=3, antithetic=True, runs=runs)
    assert 0 < sum(e for _, e in vals) < len(vals)
    assert _straddles(runs, _READ_ENDS)


@pytest.mark.parametrize("r", [0.25, 0.2, 1e-9, -1.0, 0.1 + 0.2])
def test_ruin_at_exactly_J_steps(bm, r):
    # far below 0 with a tiny spread, every step is negative: ruin comes at the
    # J-th step, the first whose delay clock exceeds r
    step = 0.05
    J = _DelayClock(step, r).reach(100)
    sums = [0.0]  # the delay clock, and the time, after each step
    for _ in range(J):
        sums.append(sums[-1] + step)
    assert sums[J] > r and (J == 1 or sums[J - 1] <= r)
    model = type(bm).brownian(1.0, 1e-3)
    cfg = McConfig(replications=1, seed=1, horizon=EscapeLevel(5.0), grid_dt=step)
    fn = PathFunctional("kappa_fixed", {"r": r}, x0=-50.0, discount_q=0.7)
    for v, e in _both(model, fn, cfg, None, 20, seed=9):
        assert (v, e) == (math.exp(-0.7 * sums[J]), 0)


def test_delay_clock_edges():
    # five steps of 0.05 sum to 0.25 exactly, and six to 0.3 < 0.1 + 0.2
    assert _DelayClock(0.05, 0.25).reach(100) == 6
    assert _DelayClock(0.05, 0.2).reach(100) == 5
    assert _DelayClock(0.05, 0.1 + 0.2).reach(100) == 7
    assert _DelayClock(0.5, 0.25).reach(100) == 1
    assert _DelayClock(0.05, -3.0).reach(100) == 1
    assert _DelayClock(0.05, math.inf).reach(10_000) is None
    assert _DelayClock(0.05, math.nan).reach(10_000) is None
    # the clock sums only as far as it is asked to
    clock = _DelayClock(0.05, 0.25)
    assert clock.reach(5) is None and clock.n == 5
    assert clock.reach(3) is None and clock.n == 5
    assert clock.reach(40) == 6 and clock.n == 6


@pytest.mark.parametrize("r", [1e6, 1e15, math.inf])
def test_delay_no_path_outlives(bm, r):
    # the clock is never summed to r: the walk ends by escape, as the loop does
    cfg = McConfig(replications=1, seed=2, horizon=EscapeLevel(4.0), grid_dt=0.05)
    fn = PathFunctional("kappa_fixed", {"r": r}, x0=0.5)
    assert all(e == 1 for _, e in _both(bm, fn, cfg, None, 50, seed=2))


@pytest.mark.filterwarnings("ignore:truncation bound")
def test_estimate_pins_walk_to_scalar(bm):
    # a whole campaign with its grid-halving companion: the estimate the walk
    # gives is the estimate of the step-by-step loop
    cfg = McConfig(replications=300, seed=11, horizon=EscapeLevel(10.0), grid_dt=0.05)
    fn = PathFunctional("kappa_fixed", {"r": 0.25}, x0=0.5, discount_q=0.1)
    est = estimate(bm, cfg, fn)
    main = _both(bm, fn, cfg, None, cfg.replications, cfg.seed)
    assert est.value == sum(v for v, _ in main) / len(main)


@pytest.mark.filterwarnings("ignore:truncation bound")
def test_odd_antithetic_companion_rounds_up(bm, monkeypatch):
    # 8012 // 4 = 2003 companion replications: an odd count, which antithetic
    # campaigns cannot have; the companion runs 2004
    seen = []
    collect = driver._collect

    def spy(model, fn, config, workers, seed, dt=None):
        seen.append((config.replications, config.antithetic, dt))
        return collect(model, fn, config, workers, seed, dt)

    monkeypatch.setattr(driver, "_collect", spy)
    cfg = McConfig(replications=8012, seed=4, horizon=EscapeLevel(8.0), grid_dt=0.5,
                   antithetic=True)
    est = estimate(bm, cfg, PathFunctional("kappa_fixed", {"r": 1.0}, x0=0.5))
    assert seen == [(8012, True, None), (2004, True, 0.25)]
    assert np.isfinite(est.truncation_bound) and est.replications == 8012


@pytest.mark.filterwarnings("ignore:truncation bound")
def test_kappa_fixed_bm_validate_campaign_is_pinned(bm):
    # validate's bm_a fixed_delay_approx campaign: the walk's draws and their
    # order, and with them every bit of the estimate, stay as they are
    cfg = McConfig(replications=256, seed=20240120, grid_dt=0.01,
                   horizon=EscapeLevel(default_escape_level(bm, 1e-6)))
    est = estimate(bm, cfg, PathFunctional("kappa_fixed", {"r": 1.0}, x0=0.5))
    assert (est.value.hex(), est.std_error.hex(), est.truncation_bound.hex()) == (
        "0x1.e000000000000p-4", "0x1.4a02195d7b20ap-6", "0x1.acc814653f864p-5")
