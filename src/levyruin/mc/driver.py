"""Replication farm: deterministic, worker-count-invariant estimation.

Replications are grouped into fixed-size blocks; each replication's stream is
keyed by (seed, replication index) only, and block partial sums are reduced in
block order, so results are bitwise identical for any worker count.  A block
runner makes one stream and re-keys it for every replication.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..models import BROWNIAN, LevyModel
from . import brownian, cramer_lundberg
from .config import EscapeLevel, McConfig, McEstimate, classical_ruin_bound
from .functionals import PathFunctional
from .streams import Stream

_BLOCK = 4096
_GRID_SALT = 0x9E3779B97F4A7C15  # seed offset for the grid-halving companion run


def build_simulator(model: LevyModel, fn: PathFunctional, config: McConfig, dt=None):
    if model.kind == BROWNIAN:
        return brownian.build(model, fn, config, dt=dt)
    return cramer_lundberg.build(model, fn, config)


def _run_blocks(model, fn, config, block_lo, block_hi, seed, dt):
    """Replication values of blocks [block_lo, block_hi): (block, values, escapes).

    Replication ``idx`` draws from stream (seed, idx); in antithetic campaigns
    replications 2k and 2k + 1 are the plain and flipped members of pair k.
    """
    sim = build_simulator(model, fn, config, dt=dt)
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


def _blocks(model, fn, config, workers, seed, dt=None):
    """Every block of a campaign, in block order, run on up to ``workers`` processes."""
    n_blocks = (config.replications + _BLOCK - 1) // _BLOCK
    if workers <= 1 or n_blocks == 1:
        return _run_blocks(model, fn, config, 0, n_blocks, seed, dt)
    bounds = np.linspace(0, n_blocks, min(workers, n_blocks) + 1).astype(int)
    # one process per block range: under fork a pool starts all its workers at
    # the first submit
    with ProcessPoolExecutor(max_workers=len(bounds) - 1) as pool:
        futs = [
            pool.submit(_run_blocks, model, fn, config, int(lo), int(hi), seed, dt)
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        parts = [item for f in futs for item in f.result()]
    parts.sort(key=lambda item: item[0])
    return parts


def _collect(model, fn, config, workers, seed, dt=None):
    # an antithetic pair is one observation, the mean of its two members
    s = 0.0
    s2 = 0.0
    nv = 0
    nesc = 0
    for _, vals, bne in _blocks(model, fn, config, workers, seed, dt):
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
    if isinstance(config.horizon, EscapeLevel) and nesc > 0:
        frac = nesc / config.replications
        bound = frac * classical_ruin_bound(model, config.horizon.b_esc)
    return value, se, bound


def estimate(model: LevyModel, config: McConfig, fn: PathFunctional,
             workers: int = 1) -> McEstimate:
    """Estimate a path functional; deterministic in (seed, config, functional).

    For grid-based Brownian functionals (kappa_fixed) a companion run at half the
    grid step is performed and the observed halving gap is added to the reported
    truncation bound.
    """
    s, s2, nv, nesc = _collect(model, fn, config, workers, config.seed)
    value, se, bound = _finish(model, config, s, s2, nv, nesc)

    grid = model.kind == BROWNIAN and brownian.needs_grid(fn)
    if grid:
        half_reps = max(config.replications // 4, min(config.replications, 2000))
        if config.antithetic:
            half_reps += half_reps & 1  # whole antithetic pairs
        half_cfg = McConfig(
            replications=half_reps,
            seed=config.seed,
            horizon=config.horizon,
            grid_dt=config.grid_dt,
            antithetic=config.antithetic,
        )
        hs, hs2, hnv, hnesc = _collect(
            model, fn, half_cfg, workers, config.seed ^ _GRID_SALT, dt=config.grid_dt / 2.0
        )
        hvalue, hse, _ = _finish(model, half_cfg, hs, hs2, hnv, hnesc)
        bound += abs(value - hvalue) + hse

    if isinstance(config.horizon, EscapeLevel) and se > 0.0 and bound > 0.1 * se:
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
