"""Hybrid exact-in-law simulation of the Brownian risk model.

Only the path skeleton the functionals can see is simulated: Gaussian increments
at the Poisson observation epochs, exact inverse-Gaussian recovery times from a
negative observation to the next up-crossing of 0, and Brownian-bridge crossing
indicators between skeleton points.  Occupation times, observation deficits,
consecutive-observation Erlang ruin and budget-clock ruin times are all exact in
law; the pure fine-grid fallback is kept only for the fixed-delay time kappa_r,
where the excursion-age clock is not observation-driven.

The Parisian and occupation functionals share one excursion core.  An
excursion's trigger is the n-th consecutive negative observation with the bridge
below 0 in between (n is the ``n`` param, default 1); its recovery is the
inverse-Gaussian first passage to 0 from the trigger's position.  Constructions:

* "observation" (T0_minus and the occupation functionals, which take no
  construction, and the default of rho_erlang): a ruin functional stops at the
  trigger; an occupation functional accrues recovery - trigger and runs on;
* "occupation" (rho_sum_exp, its only construction) and "clock" (rho_erlang):
  the delay's first Exp(lam) stage is the wait for the first negative
  observation (n = 1), and its other stages -- Exp(p), or n - 1 Exp(lam) -- are
  a budget drawn after the recovery and raced against it: ruin comes at
  trigger + budget when the budget runs out first.  With n = 1 there is no
  budget and the clock construction is T0_minus.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import UnsupportedFunctional
from ..models import LevyModel
from .config import FixedTime, McConfig
from .functionals import (
    EV_NONE,
    EV_RUIN,
    EV_UPCROSS,
    PathFunctional,
    _reject_ignored_fields,
    construction,
)
from .streams import _BUF


def _setup(model: LevyModel, fn: PathFunctional, config: McConfig, needs_escape=True):
    if fn.params.get("a") is not None:
        raise UnsupportedFunctional(
            "lower-barrier detection between skeleton points is not exactly samplable "
            "for the Brownian model; use the Cramer-Lundberg simulator"
        )
    if isinstance(config.horizon, FixedTime):
        return math.inf, config.horizon.t_max
    if needs_escape:
        model.require_positive_drift("escape-level Monte Carlo horizon")
    return config.horizon.b_esc, None


def _crossed_above(stream, x1, x2, gap, level, sig2) -> bool:
    # bridge crossing of `level` from below on one skeleton segment
    if x2 >= level:
        return True
    return stream.uniform() < math.exp(-2.0 * (level - x1) * (level - x2) / (sig2 * gap))


def _touched_zero(stream, x1, x2, gap, sig2) -> bool:
    # both endpoints below 0: did the bridge reach 0?
    return stream.uniform() < math.exp(-2.0 * x1 * x2 / (sig2 * gap))


def make_excursion_sim(model: LevyModel, fn: PathFunctional, config: McConfig, kind):
    mu, sig = model.mu, model.sigma
    sig2 = sig * sig
    prm = fn.params
    lam = float(prm["lam"])
    n = int(prm.get("n", 1))
    budget = None  # Exp rates of the budget raced against the recovery
    if fn.name == "rho_sum_exp":
        n, budget = 1, (float(prm["p"]),)
    elif kind == "clock" and n > 1:
        n, budget = 1, (lam,) * (n - 1)
    accrue = fn.name.startswith("occupation")
    b = prm.get("b")
    b = None if b is None else float(b)
    exp_rate = prm.get("exp_horizon_rate")
    exp_rate = None if exp_rate is None else float(exp_rate)
    q, th, p = fn.discount_q, fn.tilt_theta, fn.laplace_p
    x0 = fn.x0
    if fn.name == "occupation_poisson_literal":
        raise UnsupportedFunctional(
            "the literal overlapping sum needs the in-excursion path after a "
            "sampled recovery; only the Cramer-Lundberg simulator provides it"
        )
    if b is not None and q != 0.0 and (accrue or fn.success_event == "upcross"):
        raise UnsupportedFunctional(
            "discounted tau_b crossing times are not exactly samplable for the "
            "Brownian model"
        )
    if budget is not None and th != 0.0:
        raise UnsupportedFunctional(
            "the deficit at a mid-excursion Parisian ruin time is not exactly "
            "samplable for the Brownian model"
        )
    besc, tmax = _setup(model, fn, config, needs_escape=exp_rate is None)
    if not accrue and tmax is not None:
        raise UnsupportedFunctional("ruin-event functionals need an escape-level horizon")
    if b is not None or exp_rate is not None:
        besc = math.inf  # the path ends at b or at the horizon instead
    stop = not accrue and budget is None  # ruin at the trigger itself
    success = None if accrue else (EV_RUIN if fn.success_event == "ruin" else EV_UPCROSS)

    def value(ev, tm, df, occ):
        if success is not None and ev != success:
            return 0.0
        return math.exp(-q * tm + th * df - p * occ)

    def sim(stream):
        t = 0.0
        X = x0
        occ = 0.0
        consec = 0
        horizon = tmax if exp_rate is None else stream.exponential(exp_rate)
        if b is not None and X >= b:
            return value(EV_UPCROSS, 0.0, 0.0, occ), 0
        while True:
            gap = stream.exponential(lam)
            tn = t + gap
            if horizon is not None and tn >= horizon:
                return value(EV_NONE, 0.0, 0.0, occ), 0
            Xn = X + mu * gap + sig * math.sqrt(gap) * stream.normal()
            if b is not None and _crossed_above(stream, X, Xn, gap, b, sig2):
                return value(EV_UPCROSS, 0.0, 0.0, occ), 0
            if Xn < 0.0:
                # consec counts a run of negative observations that the bridge
                # joins below 0 (a run starts anew after X >= 0); its n-th
                # member is the excursion's trigger
                if X < 0.0 and consec >= 1 and not _touched_zero(stream, X, Xn, gap, sig2):
                    consec += 1
                else:
                    consec = 1
                if consec < n:
                    t, X = tn, Xn
                    continue
                if stop:
                    return value(EV_RUIN, tn, Xn, occ), 0
                depth = -Xn
                rec = stream.inverse_gaussian(depth / mu, depth * depth / sig2)
                if budget is not None:
                    spent = 0.0
                    for rate in budget:
                        spent += stream.exponential(rate)
                    if rec > spent:
                        return value(EV_RUIN, tn + spent, 0.0, occ), 0
                elif horizon is not None and tn + rec >= horizon:
                    return value(EV_NONE, 0.0, 0.0, occ + horizon - tn), 0
                else:
                    occ += rec
                t = tn + rec
                X = 0.0
            else:
                t, X = tn, Xn
                if X >= besc:
                    return value(EV_NONE, 0.0, 0.0, occ), 1

    return sim


def make_tau_minus_sim(model: LevyModel, fn: PathFunctional, config: McConfig):
    """Indicator of ever passing below ``level`` (bridge-checked; q = 0 only)."""
    mu, sig = model.mu, model.sigma
    sig2 = sig * sig
    level = float(fn.params["level"])
    if fn.discount_q != 0.0 or fn.tilt_theta != 0.0:
        raise UnsupportedFunctional(
            "only the bare indicator of tau_level^- is exactly samplable for the "
            "Brownian model"
        )
    x0 = fn.x0
    besc, tmax = _setup(model, fn, config)
    if tmax is not None:
        raise UnsupportedFunctional("first-passage indicators need an escape-level horizon")

    def sim(stream):
        X = x0
        if X < level:
            return 1.0, 0
        while True:
            gap = stream.exponential(1.0)  # skeleton rate; any rate is exact via bridges
            Xn = X + mu * gap + sig * math.sqrt(gap) * stream.normal()
            if Xn < level:
                return 1.0, 0
            if stream.uniform() < math.exp(-2.0 * (X - level) * (Xn - level) / (sig2 * gap)):
                return 1.0, 0
            X = Xn
            if X >= besc:
                return 0.0, 1

    return sim


def make_tau_plus_sim(model: LevyModel, fn: PathFunctional, config: McConfig):
    mu, sig = model.mu, model.sigma
    sig2 = sig * sig
    b = float(fn.params["b"])
    if fn.discount_q != 0.0:
        raise UnsupportedFunctional(
            "discounted tau_b crossing times are not exactly samplable for the "
            "Brownian model"
        )
    x0 = fn.x0
    _, tmax = _setup(model, fn, config)
    if tmax is not None:
        raise UnsupportedFunctional("first-passage indicators need an escape-level horizon")

    def sim(stream):
        X = x0
        if X >= b:
            return 1.0, 0
        while True:
            gap = stream.exponential(1.0)
            Xn = X + mu * gap + sig * math.sqrt(gap) * stream.normal()
            if _crossed_above(stream, X, Xn, gap, b, sig2):
                return 1.0, 0
            X = Xn

    return sim


class _DelayClock:
    """The delay clock of a negative run, ``run += step`` once a step, summed
    only as far as the runs met so far reach.  ``J`` is the first run length
    whose clock exceeds r: the smallest j whose j-fold float sum of ``step`` is
    above r.  A delay that no path outlives (a huge r, inf or nan) then costs no
    more steps than the walk itself takes."""

    __slots__ = ("step", "r", "run", "n", "J")

    def __init__(self, step: float, r: float):
        self.step, self.r = step, r
        self.run, self.n = 0.0, 0
        self.J = None

    def reach(self, length: int):
        """Sum the clock to ``length`` steps unless J is found first; J or None."""
        while self.J is None and self.n < length:
            self.run += self.step
            self.n += 1
            if self.run > self.r:
                self.J = self.n
        return self.J


def make_kappa_grid_sim(model: LevyModel, fn: PathFunctional, config: McConfig, dt=None):
    """Fixed-delay Parisian ruin on an Euler grid (the only grid-based Brownian
    functional; the driver reports the grid-halving gap in the bias bound).

    The walk takes one stream read at a time: the positions X, the times t and
    the length of the current negative run over a read are sequential
    accumulations, so every value is the one a step-by-step loop would compute.
    It stops at the first escape or the first run of J negative steps, the
    delay clock's crossing of r (``_DelayClock``)."""
    mu, sig = model.mu, model.sigma
    r_delay = float(fn.params["r"])
    q = fn.discount_q
    success = EV_RUIN if fn.success_event == "ruin" else EV_UPCROSS
    if success != EV_RUIN:
        raise UnsupportedFunctional("kappa_fixed supports only the ruin event")
    x0 = fn.x0
    besc, tmax = _setup(model, fn, config)
    if tmax is not None:
        raise UnsupportedFunctional("kappa_fixed needs an escape-level horizon")
    step = config.grid_dt if dt is None else dt
    drift = mu * step
    scale = sig * math.sqrt(step)
    clock = _DelayClock(step, r_delay)
    idx = np.arange(1, _BUF + 1)

    def sim(stream):
        X = x0
        t = 0.0
        neg = 0  # steps in the current negative run; delay clocks start at entry
        while True:
            z = stream.normals()
            k = z.size
            # row 0: X then its increments; row 1: t then the steps
            w = np.empty((2, k + 1))
            w[0, 0] = X
            np.multiply(z, scale, out=w[0, 1:])
            np.add(w[0, 1:], drift, out=w[0, 1:])
            w[1, 0] = t
            w[1, 1:] = step
            np.add.accumulate(w, axis=1, out=w)
            xs = w[0, 1:]
            # the negative run at each step counts back to the last X >= 0 (or
            # into the previous read)
            last = np.where(xs >= 0.0, idx[:k], -neg)
            np.maximum.accumulate(last, out=last)
            runs = idx[:k] - last
            stop = xs >= besc  # besc > 0, so an escape is never a negative step
            J = clock.reach(neg + k)  # no run in this read is longer
            if J is not None:
                stop |= runs >= J
            i = int(stop.argmax())
            if stop[i]:
                if xs[i] >= 0.0:
                    return 0.0, 1
                return math.exp(-q * float(w[1, i + 1])), 0
            X = float(xs[-1])
            t = float(w[1, -1])
            neg = int(runs[-1])

    return sim


# the functionals this simulator runs, each with the delay constructions it
# accepts (default first)
_CONSTRUCTIONS = {
    "occupation_poisson": (), "occupation_poisson_literal": (), "occupation_poisson_n": (),
    "occupation_at_upcross": (), "T0_minus": (),
    "rho_sum_exp": ("occupation",), "rho_erlang": ("observation", "clock"),
    "tau_level_minus": (), "tau_b_plus": (), "kappa_fixed": (),
}


def needs_grid(fn: PathFunctional) -> bool:
    return fn.name == "kappa_fixed"


def build(model: LevyModel, fn: PathFunctional, config: McConfig, dt=None):
    if fn.name not in _CONSTRUCTIONS:
        raise UnsupportedFunctional(
            f"functional {fn.name!r} is not implemented for the Brownian simulator"
        )
    kind = construction(fn, _CONSTRUCTIONS[fn.name], "Brownian")
    _reject_ignored_fields(fn, "Brownian")
    if fn.name == "tau_level_minus":
        return make_tau_minus_sim(model, fn, config)
    if fn.name == "tau_b_plus":
        return make_tau_plus_sim(model, fn, config)
    if fn.name == "kappa_fixed":
        return make_kappa_grid_sim(model, fn, config, dt=dt)
    return make_excursion_sim(model, fn, config, kind)
