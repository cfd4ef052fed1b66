"""Path functionals estimable by the oracle, and the occupation accrual rule.

A :class:`PathFunctional` names a simulated quantity (first passages, Parisian
ruin times under the different delay constructions, Poissonian occupation times)
together with the transform applied to the raw path outcome:

    value = 1{event == success_event} * exp(-discount_q * time
                                            + tilt_theta * deficit
                                            - laplace_p * occupation)

(occupation functionals pay at every terminal event).  Both simulators run the
Parisian and occupation functionals through one excursion core: each excursion
below 0 has a *trigger*, the n-th point of a clock started at the excursion's
start, and a *recovery*, its next up-crossing of 0.  A ruin functional stops at
the first trigger that comes before its excursion's recovery; an occupation
functional accrues recovery - trigger and runs on.  This is the link between
Parisian ruin and Poissonian occupation times that the identities rest on.

Functional names:

* ``occupation_poisson``          total occupation, once-per-excursion accrual
                                  (params: lam; optional exp_horizon_rate)
* ``occupation_poisson_literal``  the overlapping-sum reading of the accrual
                                  (every negative observation adds its full
                                  remaining recovery time); kept because it is
                                  the verbatim summation formula -- it does NOT
                                  match the closed-form identities (see tests)
* ``occupation_poisson_n``        accrual from the n-th consecutive negative
                                  observation (params: lam, n)
* ``occupation_at_upcross``       occupation accrued up to tau_b^+ (params: lam, b)
* ``rho_sum_exp``                 Parisian ruin, delay Exp(p)+Exp(lam) per
                                  excursion (params: p, lam; optional b, a)
* ``rho_erlang``                  Parisian ruin, Erlang(n, lam) delay (params:
                                  n, lam; optional b)
* ``kappa_fixed``                 Parisian ruin with deterministic delay r
* ``T0_minus``                    first Poisson observation below 0 (params:
                                  lam; optional b, a)
* ``T0_w_weight``                 e^{-q T_0^-} W_pw(X + shift) on {T_0^- first}
                                  (params: lam, b, a, pw, shift)
* ``tau_b_plus`` / ``tau_level_minus``  classical first passages (sanity checks)

Delay constructions (the ``construction`` param; the first listed is the
default, any other value raises :class:`UnsupportedFunctional`):

* Cramer-Lundberg ``rho_sum_exp`` and ``kappa_fixed``: "clock";
  ``rho_erlang``: "clock", "observation".
* Brownian ``rho_sum_exp``: "occupation"; ``rho_erlang``: "observation",
  "clock".

The other functionals take no construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UnsupportedFunctional

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


def construction(fn: PathFunctional, allowed: tuple, simulator: str):
    """The delay construction ``fn`` asks for: ``allowed[0]`` by default (None
    when ``allowed`` is empty), and any value outside ``allowed`` raises."""
    chosen = fn.params.get("construction")
    if chosen is None:
        return allowed[0] if allowed else None
    if chosen not in allowed:
        takes = "construction " + " or ".join(map(repr, allowed)) if allowed else "no construction"
        raise UnsupportedFunctional(
            f"{fn.name} on the {simulator} simulator takes {takes}, not {chosen!r}"
        )
    return chosen


def _reject_ignored_fields(fn: PathFunctional, simulator: str) -> None:
    """Raise for a nonzero field the path of ``fn`` never reads: ``laplace_p``
    outside the occupation functionals (no other path accrues occupation);
    ``tilt_theta`` or the lower barrier ``a`` on them (they end at no deficit and
    stop at no lower barrier), and ``discount_q`` on them without ``b`` (they end
    at no stopping time); ``tilt_theta`` where the path ends with no deficit: an
    up-crossing success, ``tau_b_plus``, and the Brownian ``kappa_fixed`` grid."""
    occupation = fn.name.startswith("occupation")
    no_deficit = (fn.success_event == "upcross" or fn.name == "tau_b_plus"
                  or (fn.name == "kappa_fixed" and simulator == "Brownian"))
    if not occupation and fn.laplace_p != 0.0:
        ignored = "laplace_p"
    elif (occupation or no_deficit) and fn.tilt_theta != 0.0:
        ignored = "tilt_theta"
    elif occupation and fn.params.get("a") is not None:
        ignored = "a"
    elif occupation and fn.discount_q != 0.0 and fn.params.get("b") is None:
        ignored = "discount_q"
    else:
        return
    raise UnsupportedFunctional(f"{fn.name} on the {simulator} simulator never reads {ignored}")


def excursion_occupation(obs_times, recovery, mode="union", n_consec=1):
    """Occupation contributed by one negative excursion.

    ``obs_times``: observation epochs strictly inside the excursion, in order.
    ``recovery``: the excursion's up-crossing time of 0, or the horizon when the
    excursion outlives it.
    ``mode``: "union" accrues from the n_consec-th observation until recovery
    (every observation inside one excursion extends the same run, so the n-th
    observation in the list is the n-th consecutive negative one); "literal" sums
    the full remaining recovery time over every observation, counting overlaps.
    """
    if mode == "literal":
        return sum(recovery - s for s in obs_times)
    if len(obs_times) < n_consec:
        return 0.0
    return max(recovery - obs_times[n_consec - 1], 0.0)
