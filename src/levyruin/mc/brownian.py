"""Exact-in-law simulation of the Brownian risk model.

Only the path skeleton the functionals can see is simulated: Gaussian increments
at the Poisson observation epochs, exact inverse-Gaussian recovery times from a
negative observation to the next up-crossing of 0, and Brownian-bridge crossing
indicators between skeleton points.  Occupation times, observation deficits,
consecutive-observation Erlang ruin, budget-clock ruin times and fixed-delay
ruin times are all exact in law.

Two event loops: the excursion core and the fixed-delay loop.  Each reads its
constants and its payoff from :func:`~.functionals.plan`; which functional
takes which construction is in :data:`~.functionals.CATALOGUE`.

The excursion core runs every other functional.  An excursion's trigger is
the n-th consecutive negative observation with the bridge below 0 in between (n
is the ``n`` param, default 1); its recovery is the inverse-Gaussian first
passage to 0 from the trigger's position.  Constructions:

* "observation" (also the functionals that take no construction): a ruin
  functional stops at the trigger; an occupation functional accrues
  recovery - trigger and runs on;
* "occupation" and "clock": the delay's first Exp(lam) stage is the wait for
  the first negative observation (n = 1), and its other stages -- Exp(p), or
  n - 1 Exp(lam) -- are a budget drawn after the recovery and raced against it:
  ruin comes at trigger + budget when the budget runs out first.  With n = 1
  there is no budget and the clock construction is T0_minus.

The first passages tau_b^+ and tau_level^- have no trigger (n = 0): a skeleton
of rate 1 whose negative points start no excursion, bridge-checked against b or
the level between skeleton points.

The fixed-delay loop runs kappa_fixed, whose clock is an excursion's age, not a
count of observations: steps of length r from 0 and exact returns to 0 from
above (:func:`make_fixed_delay_sim`).
"""

from __future__ import annotations

import math

from ..models import LevyModel
from .config import McConfig
from .functionals import EV_LOWER, EV_NONE, EV_RUIN, EV_UPCROSS, PathFunctional, plan


def _crossed_above(u, x1, x2, gap, level, sig2) -> bool:
    # bridge crossing of `level` from below on one skeleton segment; u is the
    # stream's next_u
    if x2 >= level:
        return True
    return u() < math.exp(-2.0 * (level - x1) * (level - x2) / (sig2 * gap))


def make_excursion_sim(model: LevyModel, fn: PathFunctional, config: McConfig):
    mu, sig = model.mu, model.sigma
    sig2 = sig * sig
    pl = plan(model, fn, config)
    value, x0, b, floor, besc = pl.payoff, pl.x0, pl.b, pl.floor, pl.besc
    n, budget = pl.n, pl.budget
    stop = not pl.accrue and budget is None  # ruin at the trigger itself
    # an Exp(rate) draw is log1p(-u) / -rate (Stream.exponential), made inline
    nlam = -pl.lam
    nexp_rate = None if pl.exp_rate is None else -pl.exp_rate
    nbudget = None if budget is None else tuple(-rate for rate in budget)

    def sim(stream):
        u, nrm = stream.next_u, stream.next_n
        log1p, sqrt = math.log1p, math.sqrt
        t = 0.0
        X = x0
        occ = 0.0
        consec = 0
        horizon = None if nexp_rate is None else log1p(-u()) / nexp_rate
        if floor is not None and X < floor:
            return value(EV_LOWER, 0.0, 0.0, occ), 0
        if b is not None and X >= b:
            return value(EV_UPCROSS, 0.0, 0.0, occ), 0
        while True:
            gap = log1p(-u()) / nlam
            tn = t + gap
            if horizon is not None and tn >= horizon:
                return value(EV_NONE, 0.0, 0.0, occ), 0
            Xn = X + mu * gap + sig * sqrt(gap) * nrm()
            if b is not None and _crossed_above(u, X, Xn, gap, b, sig2):
                return value(EV_UPCROSS, 0.0, 0.0, occ), 0
            # the crossing of the floor from above is that of -floor by -X from below
            if floor is not None and _crossed_above(u, -X, -Xn, gap, -floor, sig2):
                return value(EV_LOWER, 0.0, 0.0, occ), 0
            if Xn < 0.0 and n:
                # consec counts a run of negative observations that the bridge
                # joins below 0 (a run starts anew after X >= 0); its n-th
                # member is the excursion's trigger
                if X < 0.0 and consec >= 1 and not _crossed_above(u, X, Xn, gap, 0.0, sig2):
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
                if nbudget is not None:
                    spent = 0.0
                    for nrate in nbudget:
                        spent += log1p(-u()) / nrate
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


def make_fixed_delay_sim(model: LevyModel, fn: PathFunctional, config: McConfig):
    """Fixed-delay Parisian ruin, exact in law: ruin at g + r for the first
    excursion below 0, started at g, that lasts longer than r.

    From X > 0 the path returns to 0 with probability e^{-2 mu X / sigma^2},
    after an IG(X / mu, X^2 / sigma^2) time; otherwise it never ruins.  From 0
    it takes one step of length r, so every excursion longer than r holds a step
    end.  A negative end -d lies in an excursion of age r d^2 / (d^2 + r sigma^2
    nu^2) (nu ~ N(0, 1)), the last zero of the bridge from 0, and of remaining
    length IG(d / mu, d^2 / sigma^2).  From x0 < 0 the clock runs from time 0.
    Nothing is truncated, so no path escapes."""
    mu, sig = model.mu, model.sigma
    sig2 = sig * sig
    pl = plan(model, fn, config)
    value, x0, r = pl.payoff, pl.x0, pl.delay
    none = value(EV_NONE, 0.0, 0.0, 0.0)
    if r == math.inf:  # a delay no excursion outlives
        return lambda stream: (none, 0)
    drift, spread = mu * r, sig * math.sqrt(r)

    def passage(u, nrm, d):
        # IG(d / mu, d^2 / sigma^2) for d > 0 by Michael-Schucany-Haas, its smaller
        # root in the conjugate form m / (1 + f/2 + sqrt(f + f^2/4)): no d^2 to
        # underflow and no cancellation, so a small d (a small r or |x0|) keeps
        # its digits where Stream.inverse_gaussian loses them
        m = d / mu
        f = nrm() ** 2 * (sig2 / mu) / d
        x = m / (1.0 + 0.5 * f + math.sqrt(f) * math.sqrt(1.0 + 0.25 * f))
        return x if u() * (m + x) <= m else m * m / x

    def sim(stream):
        u, nrm = stream.next_u, stream.next_n
        t, X = 0.0, x0
        if X < 0.0:
            t = passage(u, nrm, -X)
            if t > r:
                return value(EV_RUIN, r, 0.0, 0.0), 0
            X = 0.0
        while True:
            if X > 0.0:
                if u() >= math.exp(-2.0 * mu * X / sig2):
                    return none, 0
                t += passage(u, nrm, X)
            t += r
            X = drift + spread * nrm()
            if X < 0.0:
                w = spread * nrm() / X
                age = r / (1.0 + w * w)
                rest = passage(u, nrm, -X)
                if age + rest > r:
                    return value(EV_RUIN, t - age + r, 0.0, 0.0), 0
                t += rest
                X = 0.0

    return sim
