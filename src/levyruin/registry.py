"""Flat identity registry: stable names, parameters read from signatures, Monte
Carlo bindings.

The registry is the single source the CLI dispatches from.  Each identity is
implemented by the function of its lower-cased name in its module; its parameters
are that function's parameters after ``model``, in order, and those annotated
``int`` are integers.  ``occupation_law`` and ``fixed_delay_approx`` are implemented
here, as adapters that return (value, extras).  Where one exists, an entry also
builds the matching Monte Carlo functional for validation campaigns.

The function is looked up by name at every evaluation, not stored in the entry:
whatever rebinds the module attribute (a tracer, a test's counting wrapper) is
then what every evaluation calls.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Optional

from . import occupation, parisian
from .errors import UsageError
from .mc import McConfig, PathFunctional, estimate
from .models import LevyModel


@dataclass(frozen=True)
class Identity:
    name: str
    module: ModuleType  # implements it as the function named name.lower()
    mc_functional: Optional[Callable] = None  # (params dict) -> PathFunctional
    informational: bool = False  # validation verdict is informational by design
    params: tuple = field(init=False)  # the function's parameter names after model
    attr: str = field(init=False, repr=False, compare=False)  # name.lower()
    # what _coerce_params checks against, compiled once here: the parameter
    # names, and (name, is_int) in signature order
    names: frozenset = field(init=False, repr=False, compare=False)
    coerce: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "attr", self.name.lower())
        args = list(inspect.signature(getattr(self.module, self.attr)).parameters.values())[1:]
        object.__setattr__(self, "params", tuple(a.name for a in args))
        object.__setattr__(self, "names", frozenset(self.params))
        object.__setattr__(self, "coerce",
                           tuple((a.name, a.annotation in (int, "int")) for a in args))


_FIELDS = ("success_event", "discount_q", "tilt_theta", "laplace_p")


def _fn(name, **binding):
    # one map from functional param, or PathFunctional field, to the identity param
    # it reads; a value that names no identity param (a number, a construction, an
    # event) is fixed
    def build(prm):
        params = {k: prm.get(v, v) for k, v in binding.items()}
        fields = {k: params.pop(k) for k in _FIELDS if k in params}
        return PathFunctional(name=name, params=params, x0=prm["x"], **fields)

    return build


def occupation_law(model: LevyModel, x: float, lam: float, r: float) -> tuple:
    """The occupation law's density at r, with its atom at 0 as an extra."""
    law = occupation.occupation_law(model, x, lam)
    return law.density(r), {"atom_at_zero": law.atom_at_zero}


def fixed_delay_approx(model: LevyModel, x: float, r: float, n: int) -> tuple:
    """The fixed-delay approximation, with its Erlang(n_k) sequence as an extra."""
    res = parisian.fixed_delay_approx(model, x, r, n)
    return res.value, {"erlang_sequence": list(res.sequence)}


_HERE = sys.modules[__name__]  # the module of the two adapters above
_ERLANG2 = {"n": 2.0, "construction": "observation"}

IDENTITIES: dict[str, Identity] = {ident.name: ident for ident in (
    Identity("joint_lt_upcross", occupation,
             _fn("occupation_at_upcross", lam="lam", b="b", discount_q="q", laplace_p="p")),
    Identity("lt_occupation_inf", occupation,
             _fn("occupation_poisson", lam="lam", laplace_p="p")),
    Identity("occupation_law", _HERE),
    Identity("ruin_prob_sum_exp", parisian, _fn("rho_sum_exp", p="p", lam="lam")),
    Identity("gs_lt_two_sided", parisian,
             _fn("rho_sum_exp", p="p", lam="lam", b="b", discount_q="q", tilt_theta="theta")),
    Identity("gs_lt_infinite", parisian,
             _fn("rho_sum_exp", p="p", lam="lam", discount_q="q", tilt_theta="theta")),
    Identity("up_cross_three_barrier", parisian,
             _fn("rho_sum_exp", p="p", lam="lam", b="b", a="a", success_event="upcross",
                 discount_q="q")),
    Identity("up_cross_before_ruin", parisian,
             _fn("rho_sum_exp", p="p", lam="lam", b="b", success_event="upcross",
                 discount_q="q")),
    Identity("gerber_shiu_density", parisian),
    Identity("lt_occupation_exp_horizon", parisian,
             _fn("occupation_poisson", lam="lam", exp_horizon_rate="q", laplace_p="p")),
    Identity("ruin_prob_erlang2", parisian, _fn("rho_erlang", lam="lam", **_ERLANG2)),
    Identity("gs_density_e2", parisian),
    Identity("gs_lt_two_sided_e2", parisian,
             _fn("rho_erlang", lam="lam", b="b", **_ERLANG2, discount_q="q", tilt_theta="theta")),
    Identity("gs_lt_infinite_e2", parisian,
             _fn("rho_erlang", lam="lam", **_ERLANG2, discount_q="q", tilt_theta="theta")),
    Identity("up_cross_e2", parisian,
             _fn("rho_erlang", lam="lam", b="b", **_ERLANG2, success_event="upcross",
                 discount_q="q")),
    Identity("ruin_prob_erlang_n", parisian,
             _fn("rho_erlang", lam="lam", n="n", construction="observation")),
    # informational: the Erlang(n, n/r) approximation against the exact fixed-delay law
    Identity("fixed_delay_approx", _HERE, _fn("kappa_fixed", r="r"),
             informational=True),
    Identity("T0_joint_lt", parisian,
             _fn("T0_minus", lam="lam", b="b", discount_q="q", tilt_theta="theta")),
    Identity("upcross_before_T0_two_sided", parisian,
             _fn("T0_minus", lam="lam", b="b", a="a", success_event="upcross", discount_q="q")),
    Identity("upcross_before_T0", parisian,
             _fn("T0_minus", lam="lam", b="b", success_event="upcross", discount_q="q")),
    Identity("delayed_W_functional", parisian,
             _fn("T0_w_weight", lam="lam", b="b", a="a", pw="p", shift="z", discount_q="q")),
)}


def identity_names() -> list[str]:
    return sorted(IDENTITIES)


def validatable_names() -> list[str]:
    return sorted(n for n, ident in IDENTITIES.items() if ident.mc_functional is not None)


def evaluate_identity(name: str, model: LevyModel, params: dict, mc_config=None):
    """Evaluate a registry identity.  Returns (value, extras dict).

    Every identity is closed-form, so ``mc_config`` is ignored; it is accepted
    because the benchmark's validate workload passes it with every request.
    """
    ident = IDENTITIES[name]
    # the coerced params are in signature order, so they pass positionally
    out = getattr(ident.module, ident.attr)(model, *_coerce_params(ident, params).values())
    return out if isinstance(out, tuple) else (out, {})


def mc_counterpart(name: str, model: LevyModel, params: dict, config: McConfig,
                   workers: int = 1):
    """Run the identity's Monte Carlo counterpart; KeyError if there is none.

    Returns (estimate, functional) so reports can record what was simulated.
    """
    ident = IDENTITIES[name]
    if ident.mc_functional is None:
        raise KeyError(name)
    fn = ident.mc_functional(_coerce_params(ident, params))
    return estimate(model, config, fn, workers=workers), fn


def _coerce_params(ident: Identity, params: dict) -> dict:
    if params.keys() != ident.names:
        unknown = params.keys() - ident.names
        if unknown:
            raise UsageError(f"unknown parameters for {ident.name}: {sorted(unknown)}")
        missing = ident.names - params.keys()
        raise UsageError(f"missing parameters for {ident.name}: {sorted(missing)}")
    out = {}
    for name, is_int in ident.coerce:
        val = float(params[name])
        if not math.isfinite(val):
            raise UsageError(f"parameter {name} must be finite, got {val!r}")
        if is_int:
            if val != int(val):
                raise UsageError(f"parameter {name} must be an integer")
            val = int(val)
        out[name] = val
    return out
