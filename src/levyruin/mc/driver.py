"""Replication farm: deterministic, worker-count-invariant estimation.

Replications are grouped into fixed-size blocks; each replication's stream is
keyed by (seed, replication index) only, and block partial sums are reduced in
block order, so results are bitwise identical for any worker count.  A block
runner makes one stream and re-keys it for every replication.

Imports.  numpy is taken lazily (``util.lazy_module``), and the process pool's
module, with multiprocessing, is imported by the first campaign that runs on
more than one process: importing this module loads neither.
"""

from __future__ import annotations

import math
import warnings

from ..models import BROWNIAN, LevyModel
from ..util import lazy_module
from . import brownian, cramer_lundberg
from .config import McConfig, McEstimate, classical_ruin_bound
from .functionals import PathFunctional, loop_of
from .streams import Stream

np = lazy_module("numpy")

_BLOCK = 4096


def ProcessPoolExecutor(max_workers: int):  # noqa: N802 - tests put an inline pool here
    """A ``concurrent.futures.ProcessPoolExecutor``, whose module is imported here."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def build_simulator(model: LevyModel, fn: PathFunctional, config: McConfig, dt=None):
    """The replication closure of ``fn`` on ``model``: the event loop that
    ``loop_of`` names, the Brownian fixed-delay loop or the model's excursion
    core, which checks ``fn`` against the catalogue (``plan``).  ``dt`` is
    ignored (no loop has a time step); it is kept for callers that pass one."""
    if loop_of(model, fn) == "delay":
        return brownian.make_fixed_delay_sim(model, fn, config)
    sims = brownian if model.kind == BROWNIAN else cramer_lundberg
    return sims.make_excursion_sim(model, fn, config)


def _run_blocks(model, fn, config, block_lo, block_hi, seed):
    """Replication values of blocks [block_lo, block_hi): (block, values, escapes).

    Replication ``idx`` draws from stream (seed, idx); in antithetic campaigns
    replications 2k and 2k + 1 are the plain and flipped members of pair k.
    """
    sim = build_simulator(model, fn, config)
    stream = Stream(seed, 0)
    reset = stream.reset
    anti = config.antithetic
    out = []
    for blk in range(block_lo, block_hi):
        lo = blk * _BLOCK
        hi = min(lo + _BLOCK, config.replications)
        vals = []
        nesc = 0
        for idx in range(lo, hi):
            if anti:
                reset(seed, idx >> 1, idx & 1 == 1)
            else:
                reset(seed, idx)
            v, e = sim(stream)
            vals.append(v)
            nesc += e
        out.append((blk, vals, nesc))
    return out


def _blocks(model, fn, config, workers, seed):
    """Every block of a campaign, in block order, run on up to ``workers`` processes."""
    n_blocks = (config.replications + _BLOCK - 1) // _BLOCK
    if workers <= 1 or n_blocks == 1:
        return _run_blocks(model, fn, config, 0, n_blocks, seed)
    bounds = np.linspace(0, n_blocks, min(workers, n_blocks) + 1).astype(int)
    # one process per block range: under fork a pool starts all its workers at
    # the first submit
    with ProcessPoolExecutor(max_workers=len(bounds) - 1) as pool:
        futs = [
            pool.submit(_run_blocks, model, fn, config, int(lo), int(hi), seed)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        parts = [item for f in futs for item in f.result()]
    parts.sort(key=lambda item: item[0])
    return parts


def _collect(model, fn, config, workers, seed):
    # an antithetic pair is one observation, the mean of its two members
    s = 0.0
    s2 = 0.0
    nv = 0
    nesc = 0
    for _, vals, bne in _blocks(model, fn, config, workers, seed):
        if config.antithetic:
            vals = [0.5 * (v1 + v2) for v1, v2 in zip(vals[::2], vals[1::2])]
        bs = 0.0
        bs2 = 0.0
        for v in vals:
            bs += v
            bs2 += v * v
        s += bs
        s2 += bs2
        nv += len(vals)
        nesc += bne
    return s, s2, nv, nesc


def _finish(model, config, s, s2, nv, nesc):
    value = s / nv
    if nv > 1:
        var = max(s2 - s * s / nv, 0.0) / (nv - 1)
        se = math.sqrt(var / nv)
    else:
        se = 0.0
    bound = 0.0
    if nesc > 0:
        frac = nesc / config.replications
        bound = frac * classical_ruin_bound(model, config.horizon.b_esc)
    return value, se, bound


def estimate(model: LevyModel, config: McConfig, fn: PathFunctional,
             workers: int = 1) -> McEstimate:
    """Estimate a path functional; deterministic in (seed, config, functional).

    Every simulator is exact in law, so the truncation bound is the escape-level
    residual alone: the classical ruin tail from the escape level, times the
    share of paths that escaped.
    """
    s, s2, nv, nesc = _collect(model, fn, config, workers, config.seed)
    value, se, bound = _finish(model, config, s, s2, nv, nesc)
    if se > 0.0 and bound > 0.1 * se:
        warnings.warn(
            f"truncation bound {bound:.2e} exceeds 10% of the standard error "
            f"{se:.2e}; raise the escape level"
        )
    return McEstimate(
        value=value, std_error=se, replications=config.replications, truncation_bound=bound
    )


def sample(model: LevyModel, config: McConfig, fn: PathFunctional,
           workers: int = 1) -> np.ndarray:
    """Per-replication functional values (for histogram tests); deterministic.

    In antithetic campaigns values 2k and 2k + 1 are the two members of pair k.
    """
    parts = _blocks(model, fn, config, workers, config.seed)
    return np.array([v for _, vals, _ in parts for v in vals], dtype=float)
