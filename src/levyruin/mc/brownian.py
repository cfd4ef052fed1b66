"""Hybrid exact-in-law simulation of the Brownian risk model.

Only the path skeleton the functionals can see is simulated: Gaussian increments
at the Poisson observation epochs, exact inverse-Gaussian recovery times from a
negative observation to the next up-crossing of 0, and Brownian-bridge crossing
indicators between skeleton points.  Occupation times, observation deficits,
consecutive-observation Erlang ruin and budget-clock ruin times are all exact in
law; the pure fine-grid fallback is kept only for the fixed-delay time kappa_r,
where the excursion-age clock is not observation-driven.

Three event loops: the excursion core, one bridge-checked first passage
(tau_b^+ and tau_level^-) and the kappa_fixed Euler walk.  Each reads its
constants and its payoff from :func:`~.functionals.plan`; which functional
takes which construction is in :data:`~.functionals.CATALOGUE`.

The Parisian and occupation functionals share the excursion core.  An
excursion's trigger is the n-th consecutive negative observation with the bridge
below 0 in between (n is the ``n`` param, default 1); its recovery is the
inverse-Gaussian first passage to 0 from the trigger's position.  Constructions:

* "observation" (also the functionals that take no construction): a ruin
  functional stops at the trigger; an occupation functional accrues
  recovery - trigger and runs on;
* "occupation" and "clock": the delay's first Exp(lam) stage is the wait for
  the first negative observation (n = 1), and its other stages -- Exp(p), or
  n - 1 Exp(lam) -- are a budget drawn after the recovery and raced against it:
  ruin comes at trigger + budget when the budget runs out first.  With n = 1
  there is no budget and the clock construction is T0_minus.
"""

from __future__ import annotations

import math

import numpy as np

from ..models import LevyModel
from .config import McConfig
from .functionals import EV_NONE, EV_RUIN, EV_UPCROSS, PathFunctional, plan
from .streams import _BUF


def _crossed_above(stream, x1, x2, gap, level, sig2) -> bool:
    # bridge crossing of `level` from below on one skeleton segment
    if x2 >= level:
        return True
    return stream.uniform() < math.exp(-2.0 * (level - x1) * (level - x2) / (sig2 * gap))


def _touched_zero(stream, x1, x2, gap, sig2) -> bool:
    # both endpoints below 0: did the bridge reach 0?
    return stream.uniform() < math.exp(-2.0 * x1 * x2 / (sig2 * gap))


def make_excursion_sim(model: LevyModel, fn: PathFunctional, config: McConfig):
    mu, sig = model.mu, model.sigma
    sig2 = sig * sig
    pl = plan(model, fn, config)
    value, x0, b, besc, tmax, exp_rate = pl.payoff, pl.x0, pl.b, pl.besc, pl.tmax, pl.exp_rate
    lam, n, budget = pl.lam, pl.n, pl.budget
    stop = not pl.accrue and budget is None  # ruin at the trigger itself

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


def make_first_passage_sim(model: LevyModel, fn: PathFunctional, config: McConfig):
    """tau_b^+ or tau_level^-, bridge-checked between skeleton points (q = 0 only)."""
    mu, sig = model.mu, model.sigma
    sig2 = sig * sig
    pl = plan(model, fn, config)
    value, x0, besc = pl.payoff, pl.x0, pl.besc
    up = pl.b is not None  # tau_b^+: the crossing is X >= b, else X < level
    level, event = (pl.b, EV_UPCROSS) if up else (pl.floor, EV_RUIN)

    def sim(stream):
        X = x0
        if (X >= level) == up:
            return value(event, 0.0, 0.0, 0.0), 0
        while True:
            gap = stream.exponential(1.0)  # skeleton rate; any rate is exact via bridges
            Xn = X + mu * gap + sig * math.sqrt(gap) * stream.normal()
            if (Xn >= level) == up or (
                    stream.uniform() < math.exp(-2.0 * (X - level) * (Xn - level) / (sig2 * gap))):
                return value(event, 0.0, 0.0, 0.0), 0
            X = Xn
            if X >= besc:
                return value(EV_NONE, 0.0, 0.0, 0.0), 1

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

    The walk takes one stream read at a time, the rest of a 512-value block
    (``Stream.normals``).  The positions X over a read are one sequential
    accumulation, so every value is the one a step-by-step loop would compute.
    A read with no negative step needs only its maximum, against the escape
    level; a read with one also counts the current negative run at each step.
    The walk stops at the first escape or the first run of J negative steps, the
    delay clock's crossing of r (``_DelayClock``).  It counts steps, and forms
    the time only at a ruin, as the loop's step-by-step sum from 0.  Every
    array it holds has at most ``_BUF + 1`` values, however long the path."""
    mu, sig = model.mu, model.sigma
    pl = plan(model, fn, config)
    value, x0, besc = pl.payoff, pl.x0, pl.besc
    step = config.grid_dt if dt is None else dt
    drift = mu * step
    scale = sig * math.sqrt(step)
    clock = _DelayClock(step, pl.delay)
    idx = np.arange(1, _BUF + 1)
    w = np.empty(_BUF + 1)  # X, then its increments, accumulated in place
    tw = np.empty(_BUF + 1)  # the time sum, a chunk at a time

    def time_at(m):
        # 0 + step + ... + step, m terms, summed in order as the loop does
        t = 0.0
        while m:
            c = min(m, _BUF)
            tw[0] = t
            tw[1:c + 1] = step
            np.add.accumulate(tw[:c + 1], out=tw[:c + 1])
            t = float(tw[c])
            m -= c
        return t

    def sim(stream):
        X = x0
        n = 0  # steps taken before this read
        neg = 0  # steps in the current negative run; delay clocks start at entry
        while True:
            z = stream.normals()
            k = z.size
            path = w[:k + 1]
            xs = path[1:]
            path[0] = X
            np.multiply(z, scale, out=xs)
            np.add(xs, drift, out=xs)
            np.add.accumulate(path, out=path)
            if xs.min() >= 0.0:  # no negative step: only an escape can stop the walk
                if xs.max() >= besc:
                    return value(EV_NONE, 0.0, 0.0, 0.0), 1
                neg = 0
            else:
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
                        return value(EV_NONE, 0.0, 0.0, 0.0), 1
                    return value(EV_RUIN, time_at(n + i + 1), 0.0, 0.0), 0
                neg = int(runs[-1])
            X = float(xs[-1])
            n += k

    return sim
