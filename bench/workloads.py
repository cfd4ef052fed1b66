"""Seeded input generators for the three benchmark workloads.

Nothing here imports levyruin: the generators produce plain numbers and names,
and the library only ever sees those generated inputs.

* ``sweep``    -- one-axis parameter sweeps of closed-form registry identities.
* ``validate`` -- analytic-versus-Monte-Carlo validation requests.
* ``dist``     -- occupation-law density grids on a u-substituted Gauss-Legendre rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Model parameter sets, in the JSON model-file schema of the CLI.  For each kind
# one set is well loaded (large safety margin) and one thinly loaded.
MODELS = {
    "bm_a": {"kind": "brownian", "mu": 1.0, "sigma": math.sqrt(2.0)},
    "bm_b": {"kind": "brownian", "mu": 0.3, "sigma": 1.0},
    "cl_a": {"kind": "cramer_lundberg", "c": 1.0, "eta": 1.0, "alpha": 2.0},
    "cl_b": {"kind": "cramer_lundberg", "c": 1.5, "eta": 2.0, "alpha": 1.6},
}

# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# Registered closed-form identities and their parameters, in registry order.
# occupation_law is left out (the dist workload covers it), and so is Erlang(n)
# with n >= 4, which needs Monte Carlo (the validate workload covers it).
SWEEP_IDENTITIES = {
    "joint_lt_upcross": ("x", "b", "q", "p", "lam"),
    "lt_occupation_inf": ("x", "p", "lam"),
    "ruin_prob_sum_exp": ("x", "p", "lam"),
    "gs_lt_two_sided": ("x", "b", "q", "p", "lam", "theta"),
    "gs_lt_infinite": ("x", "q", "p", "lam", "theta"),
    "up_cross_three_barrier": ("x", "b", "a", "q", "p", "lam"),
    "up_cross_before_ruin": ("x", "b", "q", "p", "lam"),
    "gerber_shiu_density": ("x", "b", "q", "p", "lam", "y"),
    "lt_occupation_exp_horizon": ("x", "p", "q", "lam"),
    "ruin_prob_erlang2": ("x", "lam"),
    "gs_density_e2": ("x", "b", "q", "lam", "y"),
    "gs_lt_two_sided_e2": ("x", "b", "q", "lam", "theta"),
    "gs_lt_infinite_e2": ("x", "q", "lam", "theta"),
    "up_cross_e2": ("x", "b", "q", "lam"),
    "ruin_prob_erlang_n": ("x", "lam", "n"),
    "fixed_delay_approx": ("x", "r", "n"),
    "T0_joint_lt": ("x", "b", "q", "lam", "theta"),
    "upcross_before_T0_two_sided": ("x", "b", "a", "q", "lam"),
    "upcross_before_T0": ("x", "b", "q", "lam"),
    "delayed_W_functional": ("x", "b", "a", "q", "lam", "p", "z"),
}

# Every registered identity: the swept ones plus the occupation law.
REGISTERED = (*SWEEP_IDENTITIES, "occupation_law")

# What each identity returns, which fixes its range check.
PROBABILITIES = {"ruin_prob_sum_exp", "ruin_prob_erlang2", "ruin_prob_erlang_n",
                 "fixed_delay_approx"}
DENSITIES = {"gerber_shiu_density", "gs_density_e2"}

# Fixed values of the parameters a sweep does not step.  n = 3 keeps the Erlang
# recursion analytic.
BASE = {"x": 0.5, "b": 2.0, "a": 1.0, "q": 0.1, "p": 0.7, "lam": 1.3, "theta": 0.5,
        "y": -0.5, "z": 0.5, "r": 1.0, "n": 3}

# Each swept axis steps through LATTICE evenly spaced points of its range.  The
# ranges keep every point inside the documented domain: -a <= x <= b, y <= 0,
# theta >= 0 and rates > 0.  With BASE above no lattice point lands on a removable
# pole (p = lam, theta = Phi_{q+lam}, ...), which the identities reject by design;
# theta stops at 1.95 because 2.0 / 15 steps would put a point on cl_b's poles
# Phi_{q+lam} = 1.6 and Phi_{q+p} = 16/15.
LATTICE = 16
_RANGES = {
    "b": (BASE["x"], BASE["x"] + 4.0),
    "a": (0.0, 3.0),
    "q": (0.01, 2.0),
    "p": (0.05, 3.0),
    "lam": (0.05, 3.0),
    "theta": (0.0, 1.95),
    "y": (-3.0, 0.0),
    "z": (0.05, 3.0),
    "r": (0.1, 3.0),
}

# Known-defect region, evaluated apart from the timed sweeps:
# * a level (b, or x where the identity has no barrier) stepped log-uniformly over
#   [1e2, 1e4], where the seed commit overflows or returns values out of range;
# * delayed_W_functional stepped along a or z, which crosses into z > a, where the
#   seed's values disagree with the Monte Carlo oracle and turn negative.
DEFECT_LEVELS = (1e2, 1e4)
DEFECT_AXES = {"delayed_W_functional": ("a", "z")}

# Relative jitter applied to every swept value.  It keeps each value within 1e-12
# of its lattice point (far inside the 1e-6 reference tolerance) while making it
# a float no earlier sweep used, as the values of a user's own grid would be.
JITTER = 1e-12
SWEEP_MIN_POINTS = 6

# A run cycles through a fixed seeded list of this many rounds of sweeps (one
# round visits every family once), about 4-5 s of work on the seed commit.  The
# first pass meets every value fresh; later passes repeat the list, as a user
# re-running a notebook does, so the scale cache stops growing after one pass
# and peak memory does not rise with throughput.
SWEEP_ROUNDS = 16


@dataclass(frozen=True)
class Family:
    """One identity on one model, stepped along one axis over a fixed lattice."""

    identity: str
    model: str
    axis: str
    lattice: tuple
    defect: bool = False

    @property
    def key(self) -> str:
        kind = "defect" if self.defect else "axis"
        return f"{self.identity}|{self.model}|{kind}:{self.axis}"

    def params(self, k: int, jitter: float = 0.0) -> dict:
        """Identity parameters at lattice point k, the swept value scaled by
        (1 + jitter) and kept inside the lattice's range, whose ends can be
        domain bounds (x = b, x = -a, b = x)."""
        out = {name: BASE[name] for name in SWEEP_IDENTITIES[self.identity]}
        value = self.lattice[k] * (1.0 + jitter)
        out[self.axis] = min(max(value, self.lattice[0]), self.lattice[-1])
        return out


def _x_range(names) -> tuple:
    if "a" in names:
        return (-BASE["a"], BASE["b"])
    if "b" in names:
        return (0.0, BASE["b"])
    return (0.0, 3.0)


def _linspace(lo: float, hi: float, n: int) -> tuple:
    return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))


def _geomspace(lo: float, hi: float, n: int) -> tuple:
    return tuple(lo * (hi / lo) ** (i / (n - 1)) for i in range(n))


def _axis_family(name: str, model: str, axis: str, defect: bool = False) -> Family:
    names = SWEEP_IDENTITIES[name]
    lo, hi = _x_range(names) if axis == "x" else _RANGES[axis]
    return Family(name, model, axis, _linspace(lo, hi, LATTICE), defect)


def sweep_families() -> list:
    """The timed families: each identity on each model along each float axis,
    outside the known-defect region."""
    return [
        _axis_family(name, model, axis)
        for name, names in SWEEP_IDENTITIES.items()
        for model in MODELS
        for axis in names
        if axis != "n" and axis not in DEFECT_AXES.get(name, ())
    ]


def defect_families() -> list:
    """The known-defect families: each identity on each model along its level,
    and the known-defect axes over their ordinary ranges."""
    levels = _geomspace(*DEFECT_LEVELS, LATTICE)
    out = [
        Family(name, model, "b" if "b" in names else "x", levels, defect=True)
        for name, names in SWEEP_IDENTITIES.items()
        for model in MODELS
    ]
    out += [
        _axis_family(name, model, axis, defect=True)
        for name, axes in DEFECT_AXES.items()
        for model in MODELS
        for axis in axes
    ]
    return out


@dataclass(frozen=True)
class Sweep:
    family: Family
    indices: tuple  # lattice indices, ascending as in a CLI grid
    jitter: tuple   # one relative jitter per index

    def points(self):
        for k, d in zip(self.indices, self.jitter):
            yield k, self.family.params(k, d)


def sweep_list(seed: int) -> list:
    """The seeded list of SWEEP_ROUNDS rounds of sweeps.

    Every round visits each family once in a seeded order, so any run of whole
    rounds holds every family in equal proportion whatever the seed.  Each sweep
    takes a seeded window of its family's lattice.
    """
    rng = random.Random(seed)
    families = sweep_families()
    out = []
    for _ in range(SWEEP_ROUNDS):
        order = list(families)
        rng.shuffle(order)
        for fam in order:
            m = rng.randint(SWEEP_MIN_POINTS, LATTICE)
            start = rng.randint(0, LATTICE - m)
            jit = tuple(rng.uniform(-JITTER, JITTER) for _ in range(m))
            out.append(Sweep(fam, tuple(range(start, start + m)), jit))
    return out


def sweep_plan(seed: int):
    """Endless stream of sweeps: the seeded list, over and over."""
    sweeps = sweep_list(seed)
    while True:
        yield from sweeps


def defect_plan() -> list:
    """The known-defect probe: every defect family over its whole lattice."""
    return [Sweep(fam, tuple(range(LATTICE)), (0.0,) * LATTICE) for fam in defect_families()]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

# Validatable identities per model kind.  The Brownian simulators raise
# UnsupportedFunctional for the other nine (barrier up-crossings, the discounted
# Exp(p)+Exp(lam) Gerber-Shiu transforms, T0_w_weight).
_VALIDATE_CL = (
    "T0_joint_lt", "delayed_W_functional", "fixed_delay_approx", "gs_lt_infinite",
    "gs_lt_infinite_e2", "gs_lt_two_sided", "gs_lt_two_sided_e2", "joint_lt_upcross",
    "lt_occupation_exp_horizon", "lt_occupation_inf", "ruin_prob_erlang2",
    "ruin_prob_erlang_n", "ruin_prob_sum_exp", "up_cross_before_ruin", "up_cross_e2",
    "up_cross_three_barrier", "upcross_before_T0", "upcross_before_T0_two_sided",
)
_VALIDATE_BM = (
    "T0_joint_lt", "fixed_delay_approx", "gs_lt_infinite_e2", "gs_lt_two_sided_e2",
    "lt_occupation_exp_horizon", "lt_occupation_inf", "ruin_prob_erlang2",
    "ruin_prob_erlang_n", "ruin_prob_sum_exp",
)

BLOCK = 4096  # replications per block of the Monte Carlo driver

# Replication counts.  Most campaigns fit in one driver block; three span two
# blocks, and the grid-based Brownian fixed-delay functional (about 0.8 ms a
# replication plus a half-step companion run) gets few, so no campaign dominates
# and a pass of the whole list takes about 3 s on the seed commit.
_REPS = {
    ("cl_a", "gs_lt_two_sided"): 2 * BLOCK,
    ("cl_a", "ruin_prob_sum_exp"): 2 * BLOCK,
    ("cl_a", "up_cross_three_barrier"): 2 * BLOCK,
    ("bm_a", "fixed_delay_approx"): 256,
}
_DEFAULT_REPS = 1024

# Hybrid Erlang(n) requests (model, n, replications): the recursion runs
# 2 (n - 3) deficit-transform campaigns before the request's own campaign.  The
# analytic side then carries Monte Carlo noise of its own, which the verdict's
# 3 se tolerance leaves out: at 512 replications the cl_a request fails at its
# fixed seed (|0.0372 - 0.0137| > 0.0154); at 768 it passes.
_HYBRID = (("cl_a", 6, 768), ("bm_a", 5, 768))


@dataclass(frozen=True)
class Request:
    model: str
    identity: str
    params: dict
    reps: int
    mc_seed: int

    @property
    def work(self) -> int:
        """Replications the request runs at the seed commit's campaign rules:
        its own campaign, the hybrid Erlang(n) deficit-transform campaigns and the
        half-step companion of a grid-based Brownian campaign."""
        total = self.reps
        if self.identity == "ruin_prob_erlang_n" and self.params["n"] >= 4:
            total += 2 * (self.params["n"] - 3) * self.reps
        if self.identity == "fixed_delay_approx" and MODELS[self.model]["kind"] == "brownian":
            total += max(self.reps // 4, min(self.reps, 2000))
        return total


def validate_requests() -> tuple:
    """The fixed request list, one per supported (model, identity) pair plus the
    hybrid Erlang(n) requests.  Monte Carlo seeds are fixed per request, as in
    the repository's statistical gates, so a verdict never depends on the
    benchmark seed."""
    entries = [(model, name, {}, _REPS.get((model, name), _DEFAULT_REPS))
               for model, names in (("cl_a", _VALIDATE_CL), ("bm_a", _VALIDATE_BM))
               for name in names]
    entries += [(model, "ruin_prob_erlang_n", {"n": n}, reps) for model, n, reps in _HYBRID]
    out = []
    for i, (model, name, over, reps) in enumerate(entries):
        params = {k: BASE[k] for k in SWEEP_IDENTITIES[name]}
        params.update(over)
        out.append(Request(model, name, params, reps, mc_seed=20_240_101 + i))
    return tuple(out)


def validate_pass(seed: int, index: int) -> list:
    """Pass ``index`` of a run: the whole request list in a seeded order."""
    order = list(validate_requests())
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

# Occupation-law grids of one pass: three Brownian (x, lam) grids and one
# Cramer-Lundberg grid.  A Brownian density point costs about a tenth of a
# Cramer-Lundberg one, so the 3:1 mix keeps the median inside the Brownian mode
# and the tail inside the Cramer-Lundberg mode instead of on the edge between
# them.  cl_b is left out: its r_max is about 1000, where one point costs seconds.
_DIST_GRIDS = (("bm_a", 0.0, 2.0), ("bm_a", 1.0, 0.5), ("bm_b", 0.5, 1.0), ("cl_a", 0.5, 1.0))
DIST_NODES = 48
DIST_TAIL_EPS = 2e-6  # tail mass beyond the grid's r_max


@dataclass(frozen=True)
class Grid:
    model: str
    x: float
    lam: float


def dist_pass(seed: int, index: int) -> list:
    """Pass ``index`` of a run: the four grids in a seeded order.

    The grids themselves do not depend on the seed: the adaptive quadrature
    inside a density point refines at (x, lam)-dependent node counts, so
    seeded starting levels would change the work of a run by up to 30%.
    """
    grids = [Grid(*spec) for spec in _DIST_GRIDS]
    random.Random(seed * 1_000_003 + index).shuffle(grids)
    return grids


def u_grid(r_max: float, nodes: int = DIST_NODES):
    """Gauss-Legendre rule in u = sqrt(r) on [0, r_max]: returns (r, weights).

    The substitution absorbs the density's integrable 1/sqrt(r) blow-up at 0.
    """
    import numpy as np

    un, uw = np.polynomial.legendre.leggauss(nodes)
    umax = math.sqrt(r_max)
    uu = 0.5 * umax * (un + 1.0)
    return uu * uu, 0.5 * umax * uw * 2.0 * uu
