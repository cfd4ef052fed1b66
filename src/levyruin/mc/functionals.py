"""Path functionals estimable by the oracle, their catalogue, and the plan that
checks a request against it once.

A :class:`PathFunctional` names a simulated quantity (first passages, Parisian
ruin times under the different delay constructions, Poissonian occupation times)
together with the payoff applied to the raw path outcome:

    payoff = 1{event == success_event} * exp(-discount_q * time
                                             + tilt_theta * deficit
                                             - laplace_p * occupation)

(occupation functionals pay at every terminal event; ``T0_w_weight`` multiplies
by W_pw(deficit + shift)).  Both simulators run the Parisian and occupation
functionals through one excursion core, all but the Brownian kappa_fixed, whose
clock is an excursion's age and which has a loop of its own (``mc.brownian``).
In the core each excursion below 0 has a *trigger*,
the n-th point of a clock started at the excursion's start, and a *recovery*,
its next up-crossing of 0.  A ruin functional stops at the first trigger that
comes before its excursion's recovery; an occupation functional accrues
recovery - trigger (horizon - trigger where an Exp horizon ends the path first)
and runs on, so each excursion counts once, from its trigger (for
occupation_poisson the first observation that finds the surplus negative) until
it recovers to 0.  This is the link between Parisian ruin and Poissonian
occupation times that the identities rest on.  The classical first passages run
in the same core with no trigger (n = 0).

The params of each functional, the delay constructions each simulator accepts
and the fields and barriers its path reads are in :data:`CATALOGUE`.
:func:`plan` checks a request against it and returns what the event loops read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from ..errors import DomainError, UnsupportedFunctional
from ..models import BROWNIAN, LevyModel
from ..scale import scale_context, w
from ..util import require_finite
from .config import McConfig

EV_NONE = 0
EV_RUIN = 1
EV_UPCROSS = 2
EV_LOWER = 3


@dataclass(frozen=True)
class PathFunctional:
    name: str
    params: dict = field(default_factory=dict)
    x0: float = 0.0
    success_event: str = "ruin"
    discount_q: float = 0.0
    tilt_theta: float = 0.0
    laplace_p: float = 0.0


class Entry(NamedTuple):
    # the params it needs; on the excursion loop exp_horizon_rate, an Exp horizon,
    # is optional
    params: str
    cl: Optional[tuple]  # delay constructions on Cramer-Lundberg models, default first
    bm: Optional[tuple]  # the same on Brownian models; None: the simulator does not run it
    reads: str  # the fields and barriers its path reads
    delay_loop: bool = False  # on Brownian models the fixed-delay loop: reads discount_q alone
    passage: bool = False  # a classical first passage: the excursion core with no trigger


_OCC = "laplace_p discount_q b"  # discount_q only with b: otherwise no stopping time
_RUIN = "tilt_theta a discount_q b"  # tilt_theta only at ruin: an up-crossing has no deficit

CATALOGUE = {
    # total occupation, accrued once per excursion
    "occupation_poisson": Entry("lam", (), (), _OCC),
    # accrual from the n-th consecutive negative observation
    "occupation_poisson_n": Entry("lam n", (), (), _OCC),
    # occupation accrued up to tau_b^+
    "occupation_at_upcross": Entry("lam b", (), (), _OCC),
    # Parisian ruin, delay Exp(p) + Exp(lam) per excursion
    "rho_sum_exp": Entry("p lam", ("clock",), ("occupation",), _RUIN),
    # Parisian ruin, delay Erlang(n, lam)
    "rho_erlang": Entry("n lam", ("clock", "observation"), ("observation", "clock"), _RUIN),
    # Parisian ruin with deterministic delay r
    "kappa_fixed": Entry("r", ("clock",), (), _RUIN, delay_loop=True),
    # first Poisson observation below 0
    "T0_minus": Entry("lam", (), (), _RUIN),
    # e^{-q T_0^-} W_pw(X + shift) on {T_0^- first}
    "T0_w_weight": Entry("lam b a pw shift", (), None, _RUIN),
    # classical first passages: the excursion core run with no trigger, so their
    # closed forms check the core's claim, skeleton and bridge steps themselves
    "tau_b_plus": Entry("b", (), (), "discount_q b", passage=True),
    "tau_level_minus": Entry("level", (), (), "tilt_theta discount_q", passage=True),
}


def loop_of(model: LevyModel, fn: PathFunctional) -> str:
    """The event loop that runs ``fn`` on ``model``: "delay", the Brownian
    fixed-delay loop, or "excursion", the model's excursion core (every other
    functional, the first passages too, and a name that the plan rejects)."""
    entry = CATALOGUE.get(fn.name)
    delay = entry is not None and entry.delay_loop and model.kind == BROWNIAN
    return "delay" if delay else "excursion"


@dataclass(frozen=True)
class Plan:
    """What an event loop reads: the start, the barriers, the escape level, the
    Exp horizon, the excursions' trigger clock and the payoff (``payoff(event,
    time, deficit, occupation)``)."""

    payoff: Callable
    x0: float
    accrue: bool  # an occupation functional: accrues and runs on past triggers
    b: Optional[float]  # upper barrier; tau_b_plus's level
    floor: Optional[float]  # lower barrier -a; tau_level_minus's level
    besc: float  # escape level, inf where b or the Exp horizon ends the path
    exp_rate: Optional[float]  # rate of an Exp horizon
    n: int  # the trigger is the n-th point of the clock; 0: no trigger (a first passage)
    delay: float  # constant part of the clock's first gap; kappa_fixed's r
    rates: tuple  # Exp rates summed into the clock's first gap
    lam: Optional[float]  # rate of the clock's later gaps; the Brownian skeleton's rate
    budget: Optional[tuple]  # Brownian: Exp rates of a budget raced against the recovery


def plan(model: LevyModel, fn: PathFunctional, config: McConfig) -> Plan:
    """Check ``fn`` on ``model`` under ``config`` against :data:`CATALOGUE` and
    return its :class:`Plan`; a request the simulator cannot run raises
    :class:`UnsupportedFunctional`; a non-finite start, field or param (but
    kappa_fixed's r = inf, a delay no path outlives), a rate or delay <= 0, or one
    that needs positive drift on a model without it, raises ``DomainError``."""
    brownian = model.kind == BROWNIAN
    simulator = "Brownian" if brownian else "Cramer-Lundberg"
    entry = CATALOGUE.get(fn.name)
    allowed = None if entry is None else entry.bm if brownian else entry.cl
    if allowed is None:
        raise UnsupportedFunctional(
            f"functional {fn.name!r} is not implemented for the {simulator} simulator"
        )
    prm = fn.params
    kind = prm.get("construction")
    if kind is None:
        kind = allowed[0] if allowed else None
    elif kind not in allowed:
        takes = "construction " + " or ".join(map(repr, allowed)) if allowed else "no construction"
        raise UnsupportedFunctional(
            f"{fn.name} on the {simulator} simulator takes {takes}, not {kind!r}"
        )
    # the params column, the barriers (checked against reads below), the
    # construction and, on the excursion loop but for a first passage, an Exp horizon
    delay_loop = brownian and entry.delay_loop
    needs = set(entry.params.split())
    takes = needs | {"a", "b", "construction"}
    if not (delay_loop or entry.passage):
        takes.add("exp_horizon_rate")
    missing = needs - prm.keys()
    if missing or prm.keys() - takes:
        raise UnsupportedFunctional(
            f"{fn.name} takes the params {entry.params!r}: missing {sorted(missing)}, "
            f"unknown {sorted(prm.keys() - takes)}")
    if fn.success_event not in ("ruin", "upcross"):
        raise UnsupportedFunctional(
            f"success_event is 'ruin' or 'upcross', not {fn.success_event!r}")
    # a nan or infinite number would hang a path (an infinite b switches the
    # escape level off) or give a silent nan; kappa_fixed's r = inf is a delay
    # that no path outlives.  A rate <= 0 would hang a path or divide by zero, a
    # delay r <= 0 would step by 0 forever or discount a ruin at a negative time,
    # and n = 0 is the plan's first passage, with no trigger
    values = {"x0": fn.x0, "discount_q": fn.discount_q, "tilt_theta": fn.tilt_theta,
              "laplace_p": fn.laplace_p}
    values.update((k, float(v)) for k, v in prm.items()
                  if k != "construction" and not (k == "r" and v == math.inf))
    require_finite(fn.name, " ".join(values), *values.values())
    for name in ("lam", "p", "exp_horizon_rate", "r"):
        if name in prm and float(prm[name]) <= 0.0:
            raise DomainError(f"{fn.name} requires {name} > 0, got {prm[name]!r}")
    count = float(prm.get("n", 1))
    if count != int(count) or count < 1:
        raise DomainError(f"{fn.name} requires an integer n >= 1, got {prm['n']!r}")

    accrue = fn.name.startswith("occupation")
    upcross = fn.success_event == "upcross"
    b = prm.get("b")
    b = None if b is None else float(b)
    reads = {"discount_q"} if delay_loop else set(entry.reads.split())
    if upcross:
        reads.discard("tilt_theta")
    if accrue and b is None:
        reads.discard("discount_q")
    given = (("laplace_p", fn.laplace_p != 0.0), ("tilt_theta", fn.tilt_theta != 0.0),
             ("a", prm.get("a") is not None), ("discount_q", fn.discount_q != 0.0),
             ("b", b is not None))
    for name, nonzero in given:
        if nonzero and name not in reads:
            raise UnsupportedFunctional(
                f"{fn.name} on the {simulator} simulator never reads {name}")

    # the trigger clock of each excursion
    n, delay, rates, lam, budget = 1, 0.0, (), None, None
    if entry.passage:
        # no trigger; on Brownian models a skeleton of rate 1 (the bridges make any rate exact)
        n, lam = 0, 1.0
    elif fn.name == "kappa_fixed":
        delay = float(prm["r"])
    elif kind == "clock" and not brownian:  # the whole delay, drawn at the excursion's start
        if fn.name == "rho_sum_exp":
            rates = (float(prm["p"]), float(prm["lam"]))
        else:
            rates = (float(prm["lam"]),) * int(prm["n"])
    else:  # the observations, every Exp(lam)
        lam = float(prm["lam"])
        n, rates = int(prm.get("n", 1)), (lam,)
        # Brownian: the first observation, then a budget for the delay's other stages
        if brownian and fn.name == "rho_sum_exp":
            n, budget = 1, (float(prm["p"]),)
        elif brownian and kind == "clock" and n > 1:
            n, budget = 1, (lam,) * (n - 1)

    q, th, p = fn.discount_q, fn.tilt_theta, fn.laplace_p
    if brownian:  # what the skeleton and its bridges cannot sample exactly
        for unsamplable, what in (
                (prm.get("a") is not None, "a lower barrier between skeleton points"),
                (q != 0.0 and (fn.name == "tau_b_plus" or (b is not None and (accrue or upcross))),
                 "a discounted tau_b crossing time"),
                (th != 0.0 and budget is not None, "the deficit at a mid-excursion Parisian ruin"),
                (fn.name == "tau_level_minus" and (q != 0.0 or th != 0.0),
                 "more of tau_level^- than its bare indicator"),
                (delay_loop and upcross, "an up-crossing in the fixed-delay loop")):
            if unsamplable:
                raise UnsupportedFunctional(f"{what} is not exactly samplable on a Brownian model")

    # an escape level needs positive drift unless an Exp horizon ends the path
    exp_rate = prm.get("exp_horizon_rate")
    exp_rate = None if exp_rate is None else float(exp_rate)
    besc = config.horizon.b_esc
    if exp_rate is None:
        model.require_positive_drift("escape-level Monte Carlo horizon")
    if brownian and (accrue or budget is not None):
        model.require_positive_drift("the inverse-Gaussian recovery")
    if b is not None or exp_rate is not None:
        besc = math.inf  # the path ends at b or at the horizon instead

    if fn.name == "tau_level_minus":
        floor, success = float(prm["level"]), EV_LOWER
    else:
        floor = None if accrue or prm.get("a") is None else -float(prm["a"])
        success = EV_UPCROSS if upcross or fn.name == "tau_b_plus" else EV_RUIN
    if accrue:
        success = None
    weight = shift = None
    if fn.name == "T0_w_weight":
        weight, shift = scale_context(model, float(prm["pw"])), float(prm["shift"])

    def payoff(ev, tm, df, occ):
        if success is not None and ev != success:
            return 0.0
        out = math.exp(-q * tm + th * df - p * occ)
        if weight is not None:
            out *= w(weight, df + shift)
        return out

    return Plan(payoff=payoff, x0=fn.x0, accrue=accrue, b=b, floor=floor, besc=besc,
                exp_rate=exp_rate, n=n, delay=delay, rates=rates, lam=lam, budget=budget)

