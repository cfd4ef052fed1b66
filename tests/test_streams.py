"""Stream layout, re-keying and pinned Monte Carlo results.

The pinned hex values were produced by the per-replication stream construction
that ``Stream.reset`` replaced; any change to the draws a simulator sees shows
up here first.
"""

import math
import random
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.special import ndtri

from levyruin.mc import (
    EscapeLevel,
    FixedTime,
    McConfig,
    PathFunctional,
    Stream,
    build_simulator,
    estimate,
    sample,
)


def _clamp(u, antithetic):
    # the two-sided clamp of a raw uniform block, flipped first when antithetic
    if antithetic:
        u = 1.0 - u
    return np.clip(u, 1e-16, 1.0 - 1e-16)


def _reference(seed, index, antithetic, kinds):
    """Draws of a fresh Philox keyed (seed, index): 512-value blocks in order of
    need, block 0 to the uniforms, later blocks to whichever buffer runs out."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))

    def block(normal):
        u = _clamp(gen.random(512), antithetic)
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
    # neighbouring seeds offset past 2^63 drew one stream
    offset = [Stream(s ^ 0x9E3779B97F4A7C15, 0).uniform() for s in (20240101, 20240102, 20240130)]
    assert len(set(offset)) == 3
    assert Stream(2**64 - 1, 0).uniform() != Stream(2**64 - 2048, 0).uniform()
    assert Stream(-1, 0).uniform() == Stream(2**64 - 1, 0).uniform()  # keys are mod 2^64
    kinds = _pattern(5, 600)
    assert _draw(Stream(2**64 - 1, 2**63 + 1), kinds) == _reference(
        2**64 - 1, 2**63 + 1, False, kinds)


class _RawGen:
    """Stands in for a buffer's Philox generator: hands out the given raw
    uniforms in order and ignores seeks.  ``into(feed)`` binds it where the feed
    reads: its ``random`` and its ``bit_generator``."""

    def __init__(self, raw):
        self.raw = raw
        self.pos = 0
        self.bit_generator = types.SimpleNamespace(state=None)

    def random(self, n):
        self.pos += n
        return self.raw[self.pos - n:self.pos].copy()

    def into(self, feed):
        feed.random, feed.bit_generator = self.random, self.bit_generator


@pytest.mark.parametrize("anti", [False, True])
def test_one_sided_clamp_matches_two_sided(anti):
    # exact zeros, and values u > 0 small enough that 1 - u == 1, next to the
    # ordinary ones: the stream's one-sided clamp must give the two-sided clip
    edge = np.array([0.0, 5e-324, 1e-17, 2.0**-54, 1e-16, 1.05e-16, 2.0**-53,
                     0.5, 1.0 - 2.0**-53])
    assert all(1.0 - u == 1.0 for u in edge[:4])
    rng = np.random.default_rng(1)
    raw = {}
    for kind in "un":
        block = rng.random(512)
        block[rng.choice(512, 60, replace=False)] = np.resize(edge, 60)
        raw[kind] = block
    stream = Stream(1, 0, anti)
    _RawGen(raw["u"]).into(stream._uf)
    _RawGen(raw["n"]).into(stream._normal_feed())
    assert [stream.uniform() for _ in range(512)] == list(_clamp(raw["u"], anti))
    assert [stream.normal() for _ in range(512)] == list(ndtri(_clamp(raw["n"], anti)))


def test_inline_exponential_is_the_stream_exponential():
    # the cores draw Exp(rate) inline as log1p(-u) / -rate; at the edge uniforms
    # it is Stream.exponential(rate), and -log1p(-u) / rate, bit for bit
    edge = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53])  # the raw 0 clamps to 1e-16
    us = [1e-16, 2.0**-53, 1.0 - 2.0**-53]
    for rate in (1.0, 1.3, 0.7, 2.0, 1e-300, 1e300):
        stream = Stream(1, 0)
        _RawGen(edge).into(stream._uf)
        nrate = -rate
        for u in us:
            inline = math.log1p(-u) / nrate
            assert inline.hex() == stream.exponential(rate).hex()
            assert inline.hex() == (-math.log1p(-u) / rate).hex()


@pytest.mark.parametrize("stop", [(1, 0), (5, 3), (31, 1), (32, 32), (33, 70), (600, 513)])
def test_reset_mid_read_continues_at_the_new_key(stop):
    # a replication that stops mid-read (or on a read or block boundary, in
    # either buffer): after reset, the iterators bound before it draw the new
    # key's block layout
    stream = Stream(8, 1)
    u, n = stream.next_u, stream.next_n
    assert [u() for _ in range(stop[0])] == _reference(8, 1, False, ["u"] * stop[0])
    [n() for _ in range(stop[1])]
    for seed, index, anti in ((8, 2, False), (8, 3, True)):
        kinds = _pattern(seed + index + sum(stop), 1500)
        stream.reset(seed, index, anti)
        assert [u() if k == "u" else n() for k in kinds] == _reference(seed, index, anti, kinds)
        [u() for _ in range(stop[0])]  # leave this replication mid-read too


# depths of a first passage, the last two with mean^2 subnormal and 0
_DEPTHS = (1e-3, 1e-6, 1e-9, 1e-160, 1e-170)


@pytest.mark.parametrize("d", _DEPTHS)
def test_inverse_gaussian_at_tiny_depths(bm, d):
    # IG(d / mu, d^2 / sigma^2) by Michael-Schucany-Haas: where the smaller root
    # cancels to <= 0 or the shape underflows to 0, the value is the root in its
    # conjugate form, with the stream's own normal and uniform
    mu, sig2 = bm.mu, bm.sigma**2
    mean, shape = d / mu, d * d / sig2
    fired = 0
    for index in range(400):
        value = Stream(5, index).inverse_gaussian(mean, shape)
        assert math.isfinite(value) and value >= 0.0
        twin = Stream(5, index)
        y = twin.normal() ** 2
        u = twin.uniform()
        if shape > 0.0:
            diff = mean + mean * mean * y / (2.0 * shape) - (mean / (2.0 * shape)) * math.sqrt(
                4.0 * mean * shape * y + (mean * y) ** 2)
            if diff > 0.0:
                continue
            f = mean * y / shape
            root = mean / (1.0 + 0.5 * f + math.sqrt(f) * math.sqrt(1.0 + 0.25 * f))
        else:
            root = 0.0
        fired += 1
        expect = root if u <= mean / (mean + root) else mean * mean / root
        assert abs(value - expect) <= 1e-12 * expect
    assert (fired > 0) == (d < 1e-6)


def test_first_normal_loads_ndtri():
    # importing the streams, building one and drawing uniforms load no scipy; the
    # first normal binds ndtri, and the first normal of stream (1, 0) is the one it
    # always was
    code = ("import sys; from levyruin.mc import Stream; stream = Stream(1, 0); "
            "stream.uniform(); before = any(m.startswith('scipy') for m in sys.modules); "
            "value = stream.normal(); "
            "print(before, 'scipy.special' in sys.modules, value.hex())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["False", "True", "-0x1.83179f98d2d8cp+0"]
    assert _reference(1, 0, False, ["u", "n"])[1].hex() == out[2]


def test_normal_buffer_built_late_keeps_the_layout():
    # uniform-only replications, across resets and past a uniform block boundary,
    # build no normal buffer; the one the first normal builds takes the next free
    # block, so the draws are those of the reference layout
    stream = Stream(3, 0)
    for index in range(4):
        stream.reset(3, index, index % 2 == 1)
        assert _draw(stream, ["u"] * 700) == _reference(3, index, index % 2 == 1, ["u"] * 700)
    assert stream._nf is None
    kinds = ["u"] * 600 + _pattern(11, 1500)
    stream.reset(3, 9, True)
    assert _draw(stream, kinds) == _reference(3, 9, True, kinds)
    for index in (10, 11):  # and a built buffer is rewound by reset
        stream.reset(3, index)
        assert _draw(stream, kinds) == _reference(3, index, False, kinds)


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


# Every simulator path, pinned by the exact sum of its replication values; the
# sums were recorded with the per-functional event loops that the excursion
# cores replaced.  Each case is seeded with the length of its name.
# (model, functional name, params, functional keywords, horizon, replications)
_ESC = {"cl": EscapeLevel(12.0), "bm": EscapeLevel(10.0)}
_PATHS = {
    # Cramer-Lundberg: occupation accrual
    "cl-occupation": ("cl", "occupation_poisson", {"lam": 1.0}, dict(x0=0.3, laplace_p=1.0), None, 1000),
    "cl-occupation-exp_horizon": ("cl", "occupation_poisson", {"lam": 1.0, "exp_horizon_rate": 0.5},
                                  dict(x0=-0.2, laplace_p=1.5), None, 1000),
    "cl-occupation-fixed_time": ("cl", "occupation_poisson", {"lam": 2.0}, dict(x0=0.0, laplace_p=1.0),
                                 FixedTime(4.0), 1000),
    "cl-occupation-literal": ("cl", "occupation_poisson_literal", {"lam": 1.0},
                              dict(x0=-0.5, laplace_p=1.0), None, 1000),
    "cl-occupation-n2": ("cl", "occupation_poisson_n", {"lam": 2.0, "n": 2}, dict(x0=0.0, laplace_p=1.0),
                         None, 1000),
    "cl-occupation-n3-fixed_time": ("cl", "occupation_poisson_n", {"lam": 3.0, "n": 3},
                                    dict(x0=-0.3, laplace_p=2.0), FixedTime(5.0), 1000),
    "cl-occupation-upcross": ("cl", "occupation_at_upcross", {"lam": 2.0, "b": 1.5},
                              dict(x0=0.2, discount_q=0.2, laplace_p=1.0), None, 1000),
    "cl-occupation-upcross-fixed_time": ("cl", "occupation_at_upcross", {"lam": 2.0, "b": 1.5},
                                         dict(x0=0.2, discount_q=0.2, laplace_p=1.0), FixedTime(3.0), 1000),
    # Cramer-Lundberg: delay clocks
    "cl-rho_sum_exp": ("cl", "rho_sum_exp", {"p": 1.0, "lam": 1.0}, dict(x0=0.5), None, 1000),
    "cl-rho_sum_exp-b-tilt": ("cl", "rho_sum_exp", {"p": 1.0, "lam": 2.0, "b": 1.5},
                              dict(x0=0.3, discount_q=0.2, tilt_theta=0.5), None, 1000),
    "cl-rho_sum_exp-ab-upcross": ("cl", "rho_sum_exp", {"p": 2.0, "lam": 1.0, "b": 1.5, "a": 1.0},
                                  dict(x0=0.3, success_event="upcross", discount_q=0.1), None, 1000),
    "cl-rho_erlang-clock-n1": ("cl", "rho_erlang", {"n": 1, "lam": 1.0}, dict(x0=0.4), None, 1000),
    "cl-rho_erlang-clock-n3-ab": ("cl", "rho_erlang", {"n": 3, "lam": 2.0, "b": 2.0, "a": 1.5},
                                  dict(x0=0.0, discount_q=0.1, tilt_theta=0.3), None, 1000),
    "cl-kappa_fixed": ("cl", "kappa_fixed", {"r": 1.0}, dict(x0=0.5), None, 1000),
    "cl-kappa_fixed-b-upcross": ("cl", "kappa_fixed", {"r": 0.5, "b": 1.0},
                                 dict(x0=-0.2, success_event="upcross", discount_q=0.3), None, 1000),
    # Cramer-Lundberg: consecutive observations
    "cl-rho_erlang-observation-n1": ("cl", "rho_erlang", {"n": 1, "lam": 1.0, "construction": "observation"},
                                     dict(x0=0.4), None, 1000),
    "cl-rho_erlang-observation-n2-b-tilt": ("cl", "rho_erlang",
                                            {"n": 2, "lam": 1.0, "b": 1.5, "construction": "observation"},
                                            dict(x0=0.3, discount_q=0.2, tilt_theta=0.5), None, 1000),
    "cl-rho_erlang-observation-n3": ("cl", "rho_erlang", {"n": 3, "lam": 2.0, "construction": "observation"},
                                     dict(x0=-0.1), None, 1000),
    "cl-T0_minus-b-tilt": ("cl", "T0_minus", {"lam": 1.0, "b": 1.5},
                           dict(x0=0.3, discount_q=0.2, tilt_theta=0.5), None, 1000),
    "cl-T0_minus-ab-upcross": ("cl", "T0_minus", {"lam": 0.5, "b": 1.5, "a": 1.0},
                               dict(x0=0.3, success_event="upcross", discount_q=0.1), None, 1000),
    "cl-T0_w_weight": ("cl", "T0_w_weight", {"lam": 1.0, "b": 1.5, "a": 1.0, "pw": 0.5, "shift": 1.2},
                       dict(x0=0.3, discount_q=0.1), None, 1000),
    # Cramer-Lundberg: first passages
    "cl-tau_b_plus": ("cl", "tau_b_plus", {"b": 1.0}, dict(x0=0.0, discount_q=0.2), None, 1000),
    "cl-tau_level_minus-tilt": ("cl", "tau_level_minus", {"level": 0.0},
                                dict(x0=0.5, discount_q=0.1, tilt_theta=0.5), None, 1000),
    "cl-tau_level_minus-below": ("cl", "tau_level_minus", {"level": -0.5},
                                 dict(x0=0.3, discount_q=0.1, tilt_theta=0.5), None, 1000),
    # Brownian: occupation accrual
    "bm-occupation": ("bm", "occupation_poisson", {"lam": 2.0}, dict(x0=0.0, laplace_p=2.0), None, 1000),
    "bm-occupation-exp_horizon": ("bm", "occupation_poisson", {"lam": 1.0, "exp_horizon_rate": 0.5},
                                  dict(x0=-0.2, laplace_p=1.5), None, 1000),
    "bm-occupation-fixed_time": ("bm", "occupation_poisson", {"lam": 2.0}, dict(x0=0.3, laplace_p=1.0),
                                 FixedTime(4.0), 1000),
    "bm-occupation-n2": ("bm", "occupation_poisson_n", {"lam": 2.0, "n": 2}, dict(x0=0.0, laplace_p=1.0),
                         None, 1000),
    "bm-occupation-n3-fixed_time": ("bm", "occupation_poisson_n", {"lam": 3.0, "n": 3},
                                    dict(x0=-0.3, laplace_p=2.0), FixedTime(5.0), 1000),
    "bm-occupation-upcross": ("bm", "occupation_at_upcross", {"lam": 2.0, "b": 1.0},
                              dict(x0=0.2, laplace_p=2.0), None, 1000),
    # Brownian: observation budgets
    "bm-rho_sum_exp": ("bm", "rho_sum_exp", {"p": 1.0, "lam": 1.0}, dict(x0=0.5, discount_q=0.1),
                       None, 1000),
    "bm-rho_sum_exp-b-upcross": ("bm", "rho_sum_exp", {"p": 1.0, "lam": 2.0, "b": 1.5},
                                 dict(x0=0.3, success_event="upcross"), None, 1000),
    "bm-rho_sum_exp-b-ruin": ("bm", "rho_sum_exp", {"p": 2.0, "lam": 1.0, "b": 1.5},
                              dict(x0=0.3, discount_q=0.2), None, 1000),
    "bm-rho_erlang-clock-n1-b-tilt": ("bm", "rho_erlang", {"n": 1, "lam": 1.0, "b": 1.5, "construction": "clock"},
                                      dict(x0=0.3, discount_q=0.2, tilt_theta=0.5), None, 1000),
    "bm-rho_erlang-clock-n2": ("bm", "rho_erlang", {"n": 2, "lam": 1.0, "construction": "clock"},
                               dict(x0=0.0, discount_q=0.1), None, 1000),
    "bm-rho_erlang-clock-n3": ("bm", "rho_erlang", {"n": 3, "lam": 2.0, "construction": "clock"},
                               dict(x0=-0.2), None, 1000),
    # Brownian: consecutive observations
    "bm-rho_erlang-observation-n1": ("bm", "rho_erlang", {"n": 1, "lam": 1.0}, dict(x0=0.4), None, 1000),
    "bm-rho_erlang-observation-n2-b-tilt": ("bm", "rho_erlang", {"n": 2, "lam": 1.0, "b": 1.5},
                                            dict(x0=0.3, discount_q=0.2, tilt_theta=0.5), None, 1000),
    "bm-rho_erlang-observation-n3": ("bm", "rho_erlang", {"n": 3, "lam": 2.0, "construction": "observation"},
                                     dict(x0=-0.1), None, 1000),
    "bm-T0_minus-b-upcross": ("bm", "T0_minus", {"lam": 0.5, "b": 1.5},
                              dict(x0=0.3, success_event="upcross"), None, 1000),
    # Brownian: first passages and the fixed-delay loop
    "bm-tau_b_plus": ("bm", "tau_b_plus", {"b": 1.0}, dict(x0=0.0), None, 1000),
    "bm-tau_level_minus": ("bm", "tau_level_minus", {"level": 0.0}, dict(x0=0.5), None, 1000),
    "bm-tau_level_minus-below": ("bm", "tau_level_minus", {"level": -0.5}, dict(x0=0.3), None, 1000),
    "bm-kappa_fixed": ("bm", "kappa_fixed", {"r": 0.25}, dict(x0=0.5, discount_q=0.1), None, 200),
}
_PINS = {
    "bm-T0_minus-b-upcross": "0x1.aa00000000000p+9",
    "bm-kappa_fixed": "0x1.960910e6a44ccp+5",
    "bm-occupation": "0x1.7cf7084f29e98p+9",
    "bm-occupation-exp_horizon": "0x1.c48c4c6648394p+9",
    "bm-occupation-fixed_time": "0x1.b8e4613e7d950p+9",
    "bm-occupation-n2": "0x1.baf33cf96be15p+9",
    "bm-occupation-n3-fixed_time": "0x1.96b4abc45cc1fp+9",
    "bm-occupation-upcross": "0x1.b63f87fb1c1bdp+9",
    "bm-rho_erlang-clock-n1-b-tilt": "0x1.0c3b78988d784p+7",
    "bm-rho_erlang-clock-n2": "0x1.cbbf07671b118p+6",
    "bm-rho_erlang-clock-n3": "0x1.9a00000000000p+7",
    "bm-rho_erlang-observation-n1": "0x1.fa00000000000p+7",
    "bm-rho_erlang-observation-n2-b-tilt": "0x1.19d4fbc5f06cap+5",
    "bm-rho_erlang-observation-n3": "0x1.4e00000000000p+7",
    "bm-rho_sum_exp": "0x1.15b436d1ceecap+6",
    "bm-rho_sum_exp-b-ruin": "0x1.3c3b4f4ee989ap+6",
    "bm-rho_sum_exp-b-upcross": "0x1.b900000000000p+9",
    "bm-tau_b_plus": "0x1.f400000000000p+9",
    "bm-tau_level_minus": "0x1.2780000000000p+9",
    "bm-tau_level_minus-below": "0x1.bd00000000000p+8",
    "cl-T0_minus-ab-upcross": "0x1.65122866c7dc6p+9",
    "cl-T0_minus-b-tilt": "0x1.990ec8cbc71b8p+6",
    "cl-T0_w_weight": "0x1.7b0a200a080a3p+7",
    "cl-kappa_fixed": "0x1.0600000000000p+7",
    "cl-kappa_fixed-b-upcross": "0x1.bf29d82e30319p+8",
    "cl-occupation": "0x1.b7150c8150b76p+9",
    "cl-occupation-exp_horizon": "0x1.b2f1c5295295dp+9",
    "cl-occupation-fixed_time": "0x1.a011720aa1615p+9",
    "cl-occupation-literal": "0x1.3955658ab291fp+9",
    "cl-occupation-n2": "0x1.a91c6acc934a9p+9",
    "cl-occupation-n3-fixed_time": "0x1.850ab1c747491p+9",
    "cl-occupation-upcross": "0x1.21e3cbb07956dp+9",
    "cl-occupation-upcross-fixed_time": "0x1.54c171c99e2e1p+9",
    "cl-rho_erlang-clock-n1": "0x1.a400000000000p+7",
    "cl-rho_erlang-clock-n3-ab": "0x1.09390c94d7917p+6",
    "cl-rho_erlang-observation-n1": "0x1.6c00000000000p+7",
    "cl-rho_erlang-observation-n2-b-tilt": "0x1.745883e1a5e4cp+5",
    "cl-rho_erlang-observation-n3": "0x1.c600000000000p+7",
    "cl-rho_sum_exp": "0x1.8000000000000p+6",
    "cl-rho_sum_exp-ab-upcross": "0x1.6ddf006fe7dc1p+9",
    "cl-rho_sum_exp-b-tilt": "0x1.e56350374ae17p+5",
    "cl-tau_b_plus": "0x1.60960430291cep+9",
    "cl-tau_level_minus-below": "0x1.c36d4a37b9e58p+6",
    "cl-tau_level_minus-tilt": "0x1.990d956c019fcp+7",
}


@pytest.mark.parametrize("case", sorted(_PATHS))
def test_pinned_simulator_paths(case, request):
    model, name, params, kw, horizon, reps = _PATHS[case]
    cfg = McConfig(replications=reps, seed=len(case), horizon=horizon or _ESC[model])
    vals = sample(request.getfixturevalue(model), cfg, PathFunctional(name, params, **kw))
    assert math.fsum(vals).hex() == _PINS[case]
