"""Stream layout, re-keying and pinned Monte Carlo results.

The pinned hex values were produced by the per-replication stream construction
that ``Stream.reset`` replaced; any change to the draws a simulator sees shows
up here first.
"""

import math
import random

import numpy as np
import pytest
from scipy.special import ndtri

from levyruin.mc import (
    EscapeLevel,
    McConfig,
    PathFunctional,
    Stream,
    build_simulator,
    estimate,
    sample,
)
from levyruin.mc.driver import _GRID_SALT


def _reference(seed, index, antithetic, kinds):
    """Draws of a fresh Philox keyed (seed, index): 512-value blocks in order of
    need, block 0 to the uniforms, later blocks to whichever buffer runs out."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))

    def block(normal):
        u = gen.random(512)
        if antithetic:
            u = 1.0 - u
        u = np.clip(u, 1e-16, 1.0 - 1e-16)
        return list(ndtri(u) if normal else u)

    bufs = {"u": block(False), "n": []}
    out = []
    for kind in kinds:
        if not bufs[kind]:
            bufs[kind] = block(kind == "n")
        out.append(float(bufs[kind].pop(0)))
    return out


def _pattern(seed, count=3600):
    # bursts of uniforms and normals of random lengths, so that chunk and block
    # boundaries of both buffers fall inside bursts and between them
    rng = random.Random(seed)
    kinds = []
    while len(kinds) < count:
        kinds += [rng.choice("un")] * rng.choice((1, 2, 5, 31, 33, 70))
    return kinds[:count]


def _draw(stream, kinds):
    return [stream.uniform() if k == "u" else stream.normal() for k in kinds]


def test_reset_reproduces_block_layout():
    stream = Stream(99, 99)
    _draw(stream, _pattern(0, 700))  # leave it mid-block before the first reset
    for seed, index, anti in ((7, 3, False), (7, 3, True), (20240101, 4095, False),
                              (1, 2**40, True), (2**63 - 1, 5, False)):
        kinds = _pattern(seed + index)
        assert kinds.count("u") > 2 * 512 and kinds.count("n") > 2 * 512  # 6+ blocks
        stream.reset(seed, index, anti)
        assert _draw(stream, kinds) == _reference(seed, index, anti, kinds)
        assert _draw(Stream(seed, index, anti), kinds) == _reference(seed, index, anti, kinds)


def test_keys_are_exact_uint64():
    # keys >= 2^63 were once rounded through float64 to a multiple of 2048, so
    # the grid-halving companions of neighbouring seeds drew one stream
    companions = [Stream(s ^ _GRID_SALT, 0).uniform() for s in (20240101, 20240102, 20240130)]
    assert len(set(companions)) == 3
    assert Stream(2**64 - 1, 0).uniform() != Stream(2**64 - 2048, 0).uniform()
    assert Stream(-1, 0).uniform() == Stream(2**64 - 1, 0).uniform()  # keys are mod 2^64
    kinds = _pattern(5, 600)
    assert _draw(Stream(2**64 - 1, 2**63 + 1), kinds) == _reference(
        2**64 - 1, 2**63 + 1, False, kinds)


def test_pinned_estimates_and_sample(bm, cl):
    est = estimate(cl, McConfig(replications=5000, seed=21, horizon=EscapeLevel(12.0)),
                   PathFunctional("rho_sum_exp", {"p": 1.0, "lam": 1.0}, x0=0.5))
    assert (est.value.hex(), est.std_error.hex(), est.truncation_bound.hex()) == (
        "0x1.a36e2eb1c432dp-4", "0x1.1903e21390e26p-8", "0x1.721bc07521977p-19")
    est = estimate(bm, McConfig(replications=2000, seed=7, horizon=EscapeLevel(26.0)),
                   PathFunctional("occupation_poisson", {"lam": 2.0}, x0=0.0, laplace_p=2.0))
    assert (est.value.hex(), est.std_error.hex(), est.truncation_bound.hex()) == (
        "0x1.817d43d6d052ap-1", "0x1.0a06177419b5cp-7", "0x1.67852a7007e6ep-38")
    vals = sample(cl, McConfig(replications=4100, seed=11, horizon=EscapeLevel(12.0)),
                  PathFunctional("occupation_poisson", {"lam": 1.0}, x0=-0.5, laplace_p=1.0))
    assert [float(vals[i]).hex() for i in (0, 1, 4095, 4096, 4099)] == [
        "0x1.63ba3076532acp-1", "0x1.be298a361960ep-5", "0x1.0000000000000p+0",
        "0x1.4a011f177bb06p-1", "0x1.f88cb05c1ca83p-1"]
    assert math.fsum(vals).hex() == "0x1.526fe6a0717b8p+11"


def test_antithetic_worker_invariance_across_blocks(cl):
    fn = PathFunctional("occupation_poisson", {"lam": 1.0}, x0=0.0, laplace_p=1.0)
    cfg = McConfig(replications=2 * 4096 + 10, seed=3, horizon=EscapeLevel(12.0),
                   antithetic=True)
    one = estimate(cl, cfg, fn, workers=1)
    two = estimate(cl, cfg, fn, workers=2)
    assert one == two
    assert (one.value.hex(), one.std_error.hex(), one.truncation_bound.hex()) == (
        "0x1.a6e1e4c2e8e38p-1", "0x1.a9061b3ed00a3p-9", "0x1.9c54c3b43bc8bp-19")
    # sample returns the antithetic members, pair k at 2k and 2k + 1
    vals = sample(cl, cfg, fn)
    assert len(vals) == cfg.replications
    assert np.mean(vals) == pytest.approx(one.value, rel=1e-12)
    sim = build_simulator(cl, fn, cfg)
    assert vals[8193] == sim(Stream(3, 4096, antithetic=True))[0]
