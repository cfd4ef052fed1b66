"""Counter-based per-replication random streams.

A replication's draws come from the Philox stream keyed by (campaign seed,
replication index), so results are reproducible and independent of worker
scheduling.  Keys are taken modulo 2^64 and written as exact uint64 words.

Layout.  The keyed stream is cut into blocks of ``_BUF`` doubles (``_BUF / 4``
Philox counter steps each).  Block 0 feeds the uniform buffer; each later block
goes, in order of need, to whichever buffer (uniform or normal) runs out first.
Uniforms are clamped to [1e-16, 1 - 1e-16]; normals are ``ndtri`` of clamped
uniforms.  Antithetic members reuse the partner's key and flip every uniform to
1 - u before the clamp, so their normals are exact negations.  A raw uniform is
a multiple of 2^-53 in [0, 1 - 2^-53], and 1 - 1e-16 == 1 - 2^-53, so only one
bound can bind: 1e-16 at a plain u = 0, 1 - 1e-16 at a flipped 1 - 0.  Raising
u to 1e-16 before the flip applies both with one operation.

numpy and scipy.  numpy is taken lazily (``util.lazy_module``), so importing
this module (and with it ``levyruin.mc``, ``registry`` and the CLI) loads
neither, and the closed-form path never pays for them.  Building a ``Stream``
loads numpy.  The normal buffer, and with it ``scipy.special.ndtri``, is built at
the stream's first normal draw, which only Brownian simulators make: a
Cramer-Lundberg campaign draws exponentials alone and never loads scipy.  A
normal buffer built late has no block yet, so its first read takes the next
free block, as one built with the stream would; the draws are the same.  The
fills call the bound function and import nothing.

Reads.  Each buffer keeps its own Philox bit generator, positioned at a
block's first counter when the block is taken.  Within a replication the reads
of ``uniform()`` and ``normal()`` grow geometrically, ``_CHUNK``, 2 ``_CHUNK``,
... up to the end of the current block, so a replication that needs five
uniforms reads 32 values, and one that needs thousands of normals reads whole
blocks.  Those reads are kept as Python floats, so the simulators' scalar
arithmetic stays unboxed.  The values are the block's values in order whatever
the read sizes.

Reuse.  ``reset(seed, index, antithetic)`` re-keys the same stream for the next
replication by rewriting the key and counter words of kept state dicts; it
builds no bit generator.  A block runner makes one ``Stream`` and resets it per
replication.
"""

from __future__ import annotations

import math

from ..util import lazy_module

np = lazy_module("numpy")

_BUF = 512  # doubles per stream block
_CHUNK = 32  # doubles in a buffer's first read of a replication
_STEPS = _BUF // 4  # Philox counter steps per block (four 64-bit words a step)
_MASK = (1 << 64) - 1
_LO = 1e-16  # lower clamp; 1 - _LO rounds to 1 - 2^-53, the upper one


class _Feed:
    """One buffer's Philox generator, its block, the position read within it, the
    length of its next read and, for the normal buffer, ``ndtri``, whose binding
    imports ``scipy.special``.  A feed starts with no block."""

    __slots__ = ("gen", "state", "block", "pos", "size", "ndtri")

    def __init__(self, key: list, normal: bool):
        if normal:
            from scipy.special import ndtri
        else:
            ndtri = None
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
        self.ndtri = ndtri
        self.block = 0
        self.pos = _BUF  # no block yet: reset() gives the uniforms block 0
        self.size = _CHUNK


class Stream:
    """The draws of one replication: uniforms, exponentials, normals and
    inverse-Gaussian variates from the stream keyed (seed, index)."""

    __slots__ = ("_u", "_ui", "_un", "_n", "_ni", "_nn", "_anti", "_key", "_next", "_uf", "_nf")

    def __init__(self, seed: int, index: int, antithetic: bool = False):
        self._key = [0, 0]
        self._uf = _Feed(self._key, normal=False)
        self._nf = None  # built at the first normal draw
        self.reset(seed, index, antithetic)

    def reset(self, seed: int, index: int, antithetic: bool = False) -> None:
        """Re-key to (seed, index) and rewind; the next draws are those of a
        fresh ``Stream(seed, index, antithetic)``."""
        self._key[0] = seed & _MASK
        self._key[1] = index & _MASK
        self._anti = antithetic
        self._uf.block = 0
        self._uf.pos = 0
        self._uf.size = _CHUNK
        if self._nf is not None:
            self._nf.pos = _BUF  # no block yet
            self._nf.size = _CHUNK
        self._next = 1
        self._u = self._n = ()
        self._ui = self._un = self._ni = self._nn = 0

    def _normal_feed(self) -> _Feed:
        self._nf = _Feed(self._key, normal=True)
        return self._nf

    def _fill(self, feed: _Feed) -> np.ndarray:
        if feed.pos == _BUF:  # block used up: take the next one
            feed.block = self._next
            self._next += 1
            feed.pos = 0
        if feed.pos == 0:
            feed.state["state"]["counter"][0] = feed.block * _STEPS
            feed.gen.bit_generator.state = feed.state
        n = min(feed.size, _BUF - feed.pos)
        feed.pos += n
        feed.size = min(2 * feed.size, _BUF)
        u = feed.gen.random(n)
        np.maximum(u, _LO, out=u)  # binds at u = 0 alone, flipped to 1 - _LO
        if self._anti:
            np.subtract(1.0, u, out=u)
        if feed.ndtri is not None:
            feed.ndtri(u, out=u)
        return u

    def uniform(self) -> float:
        i = self._ui
        if i == self._un:
            self._u = self._fill(self._uf).tolist()
            self._un = len(self._u)
            i = 0
        self._ui = i + 1
        return self._u[i]

    def exponential(self, rate: float) -> float:
        # uniform() inlined: event-driven paths draw dozens of these a replication
        i = self._ui
        if i == self._un:
            self._u = self._fill(self._uf).tolist()
            self._un = len(self._u)
            i = 0
        self._ui = i + 1
        return -math.log1p(-self._u[i]) / rate

    def normal(self) -> float:
        i = self._ni
        if i == self._nn:
            self._n = self._fill(self._nf or self._normal_feed()).tolist()
            self._nn = len(self._n)
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
