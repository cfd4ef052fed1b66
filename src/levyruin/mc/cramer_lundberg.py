"""Exact event-driven simulation of the Cramer-Lundberg model with Exp claims.

Between claims the surplus drifts upward deterministically, so every level
crossing time, observation position and Parisian deadline position is computed
exactly; the only randomness is claim arrivals/sizes, observation epochs and
the delay clocks.  There is no discretization bias; the only bias source is the
escape-level horizon, whose residual is bounded in closed form by the driver.

The Parisian and occupation functionals share one excursion core.  An excursion
below 0 starts a clock (at the claim instant that took the surplus below 0, or
at time 0 for a negative start) whose n-th point is the excursion's trigger; the
excursion ends at its recovery, the up-crossing of 0.  Constructions:

* "clock" (the only construction of rho_sum_exp and kappa_fixed, the default of
  rho_erlang): one draw of the whole delay -- Exp(p)+Exp(lam), Erlang(n, lam)
  or the fixed r -- is the clock's first gap and n = 1, so the trigger is the
  delay's deadline;
* "observation" (rho_erlang's other construction, and T0_minus, T0_w_weight and
  the occupation functionals, which take no construction): the clock is the
  Poisson(lam) observations and n is the ``n`` param (default 1), so the
  trigger is the n-th observation inside the excursion.

Ruin functionals stop at the first trigger before recovery; occupation
functionals accrue recovery - trigger (:func:`excursion_occupation`) and run on.
"""

from __future__ import annotations

import math

from ..errors import UnsupportedFunctional
from ..models import LevyModel
from ..scale import scale_context, w
from .config import EscapeLevel, McConfig
from .functionals import (
    EV_LOWER,
    EV_NONE,
    EV_RUIN,
    EV_UPCROSS,
    PathFunctional,
    _reject_ignored_fields,
    construction,
    excursion_occupation,
)

# the functionals this simulator runs, each with the delay constructions it
# accepts (default first; an empty tuple means the observation clock)
_CONSTRUCTIONS = {
    "occupation_poisson": (), "occupation_poisson_literal": (), "occupation_poisson_n": (),
    "occupation_at_upcross": (), "T0_minus": (), "T0_w_weight": (),
    "rho_sum_exp": ("clock",), "rho_erlang": ("clock", "observation"), "kappa_fixed": ("clock",),
    "tau_b_plus": (), "tau_level_minus": (),
}


def _horizon_setup(model: LevyModel, config: McConfig, needs_escape: bool):
    if isinstance(config.horizon, EscapeLevel):
        if needs_escape:
            model.require_positive_drift("escape-level Monte Carlo horizon")
        return config.horizon.b_esc, None
    return math.inf, config.horizon.t_max


def _trigger_clock(fn: PathFunctional, kind: str):
    """(n, first-gap constant, first-gap Exp rates, later-gap rate) of the clock
    started at each excursion's start."""
    prm = fn.params
    if kind == "clock":
        if fn.name == "rho_sum_exp":
            return 1, 0.0, (float(prm["p"]), float(prm["lam"])), None
        if fn.name == "rho_erlang":
            return 1, 0.0, (float(prm["lam"]),) * int(prm["n"]), None
        return 1, float(prm["r"]), (), None
    lam = float(prm["lam"])
    return int(prm.get("n", 1)), 0.0, (lam,), lam


def make_excursion_sim(model: LevyModel, fn: PathFunctional, config: McConfig, kind):
    c, eta, alpha = model.c, model.eta, model.alpha
    prm = fn.params
    n, gap0, gap_rates, lam = _trigger_clock(fn, kind)
    accrue = fn.name.startswith("occupation")
    mode = "literal" if fn.name == "occupation_poisson_literal" else "union"
    exp_rate = prm.get("exp_horizon_rate")
    exp_rate = None if exp_rate is None else float(exp_rate)
    besc, tmax = _horizon_setup(model, config, needs_escape=exp_rate is None)
    if not accrue and tmax is not None:
        raise UnsupportedFunctional("ruin-event functionals need an escape-level horizon")
    if mode == "literal" and (tmax is not None or exp_rate is not None):
        raise UnsupportedFunctional("literal occupation has no finite-horizon reading")
    b = prm.get("b")
    b = None if b is None else float(b)
    # the lower barrier -a stops ruin functionals only
    floor = None if accrue or prm.get("a") is None else -float(prm["a"])
    if b is not None or exp_rate is not None:
        besc = math.inf  # the path ends at b or at the horizon instead
    q, th, p = fn.discount_q, fn.tilt_theta, fn.laplace_p
    x0 = fn.x0
    success = None if accrue else (EV_RUIN if fn.success_event == "ruin" else EV_UPCROSS)
    weight_ctx = None
    shift = 0.0
    if fn.name == "T0_w_weight":
        weight_ctx = scale_context(model, float(prm["pw"]))
        shift = float(prm["shift"])

    def value(ev, tm, df, occ):
        if success is not None and ev != success:
            return 0.0
        out = math.exp(-q * tm + th * df - p * occ)
        if weight_ctx is not None:
            out *= w(weight_ctx, df + shift)
        return out

    def sim(stream):
        exp_ = stream.exponential
        t = 0.0
        X = x0
        occ = 0.0
        horizon = tmax if exp_rate is None else exp_(exp_rate)
        if floor is not None and X < floor:
            return value(EV_LOWER, 0.0, X, occ), 0
        if b is not None and X >= b:
            return value(EV_UPCROSS, 0.0, 0.0, occ), 0
        while True:
            if X >= 0.0:
                if X >= besc:
                    return value(EV_NONE, 0.0, 0.0, occ), 1
                e = exp_(eta)
                if b is not None and X + c * e >= b:
                    tb = t + (b - X) / c
                    if horizon is None or tb <= horizon:
                        return value(EV_UPCROSS, tb, 0.0, occ), 0
                    return value(EV_NONE, 0.0, 0.0, occ), 0
                if horizon is not None and t + e >= horizon:
                    return value(EV_NONE, 0.0, 0.0, occ), 0
                t += e
                X += c * e - exp_(alpha)
                if floor is not None and X < floor:
                    return value(EV_LOWER, t, X, occ), 0
            else:
                # an excursion below 0: its clock starts now
                obs = []
                gap = gap0
                for rate in gap_rates:
                    gap += exp_(rate)
                next_obs = t + gap
                while True:
                    e = exp_(eta)
                    t_rec = t + (0.0 - X) / c
                    t_claim = t + e
                    t_next = t_rec if t_rec <= t_claim else t_claim
                    while next_obs < t_next and (horizon is None or next_obs < horizon):
                        obs.append(next_obs)
                        if len(obs) == n and not accrue:
                            return value(EV_RUIN, next_obs, X + c * (next_obs - t), occ), 0
                        next_obs += exp_(lam)
                    if horizon is not None and horizon <= t_next:
                        occ += excursion_occupation(obs, horizon, mode, n_consec=n)
                        return value(EV_NONE, 0.0, 0.0, occ), 0
                    if t_rec <= t_claim:
                        if accrue:
                            occ += excursion_occupation(obs, t_rec, mode, n_consec=n)
                        t = t_rec
                        X = 0.0
                        break
                    t = t_claim
                    X += c * e - exp_(alpha)
                    if floor is not None and X < floor:
                        return value(EV_LOWER, t, X, occ), 0

    return sim


def make_first_passage_sim(model: LevyModel, fn: PathFunctional, config: McConfig):
    c, eta, alpha = model.c, model.eta, model.alpha
    q = fn.discount_q
    x0 = fn.x0
    besc, tmax = _horizon_setup(model, config, needs_escape=True)
    if tmax is not None:
        raise UnsupportedFunctional("first-passage functionals need an escape-level horizon")

    if fn.name == "tau_b_plus":
        b = float(fn.params["b"])

        def sim(stream):
            exp_ = stream.exponential
            t = 0.0
            X = x0
            if X >= b:
                return 1.0, 0
            while True:
                e = exp_(eta)
                if X + c * e >= b:
                    return math.exp(-q * (t + (b - X) / c)), 0
                t += e
                X += c * e - exp_(alpha)

        return sim

    level = float(fn.params["level"])
    th = fn.tilt_theta

    def sim(stream):
        exp_ = stream.exponential
        t = 0.0
        X = x0
        if X < level:
            return math.exp(th * X), 0
        while True:
            if X >= besc:
                return 0.0, 1
            e = exp_(eta)
            t += e
            X += c * e - exp_(alpha)
            if X < level:
                return math.exp(-q * t + th * X), 0

    return sim


def build(model: LevyModel, fn: PathFunctional, config: McConfig):
    if fn.name not in _CONSTRUCTIONS:
        raise UnsupportedFunctional(
            f"functional {fn.name!r} is not implemented for the Cramer-Lundberg simulator"
        )
    kind = construction(fn, _CONSTRUCTIONS[fn.name], "Cramer-Lundberg")
    _reject_ignored_fields(fn, "Cramer-Lundberg")
    if fn.name in ("tau_b_plus", "tau_level_minus"):
        return make_first_passage_sim(model, fn, config)
    return make_excursion_sim(model, fn, config, kind)
