"""Counter-based per-replication random streams.

A replication's draws come from the Philox stream keyed by (campaign seed,
replication index), so results are reproducible and independent of worker
scheduling.  Keys are taken modulo 2^64 and written as exact uint64 words.

Layout.  The keyed stream is cut into blocks of ``_BUF`` doubles (``_BUF / 4``
Philox counter steps each).  Block 0 feeds the uniform buffer; each later block
goes, in order of need, to whichever buffer (uniform or normal) runs out first.
Uniforms are clamped to [1e-16, 1 - 1e-16]; normals are ``ndtri`` of clamped
uniforms.  Antithetic members reuse the partner's key and flip every uniform to
1 - u before the clamp, so their normals are exact negations.

Lazy reads.  A buffer reads its block ``_CHUNK`` values at a time: each buffer
keeps its own Philox bit generator, positioned at the block's first counter
when the block is taken and advancing through it chunk by chunk.  A replication
that needs five uniforms draws one chunk, not a block.  Buffers hold Python
floats, so the simulators' scalar arithmetic stays unboxed.

Reuse.  ``reset(seed, index, antithetic)`` re-keys the same stream for the next
replication by rewriting the key and counter words of kept state dicts; it
builds no bit generator.  A block runner makes one ``Stream`` and resets it per
replication.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

_BUF = 512  # doubles per stream block
_CHUNK = 32  # doubles read from a block at a time
_STEPS = _BUF // 4  # Philox counter steps per block (four 64-bit words a step)
_MASK = (1 << 64) - 1
_LO = 1e-16
_HI = 1.0 - 1e-16


class _Feed:
    """One buffer's Philox generator, its block and the position read within it."""

    __slots__ = ("gen", "state", "block", "pos", "normal")

    def __init__(self, key: list, normal: bool):
        self.gen = np.random.Generator(np.random.Philox(0))
        # the bit generator's full state, rewritten in place to re-key and seek
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.normal = normal
        self.block = 0
        self.pos = 0


class Stream:
    """The draws of one replication: uniforms, exponentials, normals and
    inverse-Gaussian variates from the stream keyed (seed, index)."""

    __slots__ = ("_u", "_ui", "_n", "_ni", "_anti", "_key", "_next", "_uf", "_nf")

    def __init__(self, seed: int, index: int, antithetic: bool = False):
        self._key = [0, 0]
        self._uf = _Feed(self._key, normal=False)
        self._nf = _Feed(self._key, normal=True)
        self.reset(seed, index, antithetic)

    def reset(self, seed: int, index: int, antithetic: bool = False) -> None:
        """Re-key to (seed, index) and rewind; the next draws are those of a
        fresh ``Stream(seed, index, antithetic)``."""
        self._key[0] = seed & _MASK
        self._key[1] = index & _MASK
        self._anti = antithetic
        self._uf.block = 0
        self._uf.pos = 0
        self._nf.pos = _BUF  # no block yet
        self._next = 1
        self._u = self._n = ()
        self._ui = self._ni = _CHUNK

    def _fill(self, feed: _Feed) -> list:
        if feed.pos == _BUF:  # block used up: take the next one
            feed.block = self._next
            self._next += 1
            feed.pos = 0
        if feed.pos == 0:
            feed.state["state"]["counter"][0] = feed.block * _STEPS
            feed.gen.bit_generator.state = feed.state
        feed.pos += _CHUNK
        u = feed.gen.random(_CHUNK)
        if self._anti:
            np.subtract(1.0, u, out=u)
        np.maximum(u, _LO, out=u)
        np.minimum(u, _HI, out=u)
        if feed.normal:
            ndtri(u, out=u)
        return u.tolist()

    def uniform(self) -> float:
        i = self._ui
        if i == _CHUNK:
            self._u = self._fill(self._uf)
            i = 0
        self._ui = i + 1
        return self._u[i]

    def exponential(self, rate: float) -> float:
        # uniform() inlined: event-driven paths draw dozens of these a replication
        i = self._ui
        if i == _CHUNK:
            self._u = self._fill(self._uf)
            i = 0
        self._ui = i + 1
        return -math.log1p(-self._u[i]) / rate

    def normal(self) -> float:
        i = self._ni
        if i == _CHUNK:
            self._n = self._fill(self._nf)
            i = 0
        self._ni = i + 1
        return self._n[i]

    def inverse_gaussian(self, mean: float, shape: float) -> float:
        # Michael-Schucany-Haas; exact first-passage times of drifted Brownian motion
        nu = self.normal()
        y = nu * nu
        x = (
            mean
            + mean * mean * y / (2.0 * shape)
            - (mean / (2.0 * shape)) * math.sqrt(4.0 * mean * shape * y + (mean * y) ** 2)
        )
        if x <= 0.0:  # roundoff guard for tiny means
            x = mean * mean * 0.25 / shape if shape > 0 else mean
        if self.uniform() <= mean / (mean + x):
            return x
        return mean * mean / x
