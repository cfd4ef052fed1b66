"""Exact event-driven simulation of the Cramer-Lundberg model with Exp claims.

Between claims the surplus drifts upward deterministically, so every level
crossing time, observation position and Parisian deadline position is computed
exactly; the only randomness is claim arrivals/sizes, observation epochs and
the delay clocks.  There is no discretization bias; the only bias source is the
escape-level horizon, whose residual is bounded in closed form by the driver.

One event loop, the excursion core, runs every functional.  It reads its
constants and its payoff from :func:`~.functionals.plan`; which functional
takes which construction is in :data:`~.functionals.CATALOGUE`.

An excursion below 0 starts a clock (at the claim instant that took the surplus
below 0, or at time 0 for a negative start) whose n-th point is the excursion's
trigger; the excursion ends at its recovery, the up-crossing of 0.
Constructions:

* "clock": one draw of the whole delay -- Exp(p)+Exp(lam), Erlang(n, lam) or
  the fixed r -- is the clock's first gap and n = 1, so the trigger is the
  delay's deadline;
* "observation" (also the functionals that take no construction): the clock is
  the Poisson(lam) observations and n is the ``n`` param (default 1), so the
  trigger is the n-th observation inside the excursion.

Ruin functionals stop at the first trigger before recovery; occupation
functionals accrue recovery - trigger (horizon - trigger where an Exp horizon
ends the excursion first) and run on.
The first passages tau_b^+ and tau_level^- have no trigger (n = 0): their path
takes the claim step of X >= 0 at every level and ends at b or below the level.
"""

from __future__ import annotations

import math

from ..models import LevyModel
from .config import McConfig
from .functionals import (
    EV_LOWER,
    EV_NONE,
    EV_RUIN,
    EV_UPCROSS,
    PathFunctional,
    plan,
)


def make_excursion_sim(model: LevyModel, fn: PathFunctional, config: McConfig):
    c = model.c
    pl = plan(model, fn, config)
    value, x0, accrue = pl.payoff, pl.x0, pl.accrue
    b, floor, besc = pl.b, pl.floor, pl.besc
    n, gap0 = pl.n, pl.delay
    # an Exp(rate) draw is log1p(-u) / -rate (Stream.exponential), made inline
    neta, nalpha = -model.eta, -model.alpha
    nlam = None if pl.lam is None else -pl.lam  # None: the first clock point is the trigger
    ngap_rates = tuple(-rate for rate in pl.rates)
    nexp_rate = None if pl.exp_rate is None else -pl.exp_rate

    def sim(stream):
        u = stream.next_u
        log1p = math.log1p
        t = 0.0
        X = x0
        occ = 0.0
        horizon = None if nexp_rate is None else log1p(-u()) / nexp_rate
        if floor is not None and X < floor:
            return value(EV_LOWER, 0.0, X, occ), 0
        if b is not None and X >= b:
            return value(EV_UPCROSS, 0.0, 0.0, occ), 0
        while True:
            if X >= 0.0 or not n:
                if X >= besc:
                    return value(EV_NONE, 0.0, 0.0, occ), 1
                e = log1p(-u()) / neta
                if b is not None and X + c * e >= b:
                    tb = t + (b - X) / c
                    if horizon is None or tb <= horizon:
                        return value(EV_UPCROSS, tb, 0.0, occ), 0
                    return value(EV_NONE, 0.0, 0.0, occ), 0
                if horizon is not None and t + e >= horizon:
                    return value(EV_NONE, 0.0, 0.0, occ), 0
                t += e
                X += c * e - log1p(-u()) / nalpha
                if floor is not None and X < floor:
                    return value(EV_LOWER, t, X, occ), 0
            else:
                # an excursion below 0: its clock starts now; seen counts its points,
                # all before the recovery, and the n-th is the trigger
                seen = 0
                gap = gap0
                for nrate in ngap_rates:
                    gap += log1p(-u()) / nrate
                next_obs = t + gap
                while True:
                    e = log1p(-u()) / neta
                    t_rec = t + (0.0 - X) / c
                    t_claim = t + e
                    t_next = t_rec if t_rec <= t_claim else t_claim
                    while next_obs < t_next and (horizon is None or next_obs < horizon):
                        seen += 1
                        if seen == n:
                            if not accrue:
                                return value(EV_RUIN, next_obs, X + c * (next_obs - t), occ), 0
                            trigger = next_obs
                        next_obs += log1p(-u()) / nlam
                    if horizon is not None and horizon <= t_next:
                        if seen >= n:
                            occ += horizon - trigger
                        return value(EV_NONE, 0.0, 0.0, occ), 0
                    if t_rec <= t_claim:
                        if seen >= n:
                            occ += t_rec - trigger
                        t = t_rec
                        X = 0.0
                        break
                    t = t_claim
                    X += c * e - log1p(-u()) / nalpha
                    if floor is not None and X < floor:
                        return value(EV_LOWER, t, X, occ), 0

    return sim
