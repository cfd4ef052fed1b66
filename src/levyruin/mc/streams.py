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
block's first counter when the block is taken, and one persistent iterator over
its reads, ``itertools.chain.from_iterable`` of a generator of lists, built with
the stream.  Its ``__next__`` is the stream's ``next_u`` (uniforms) or ``next_n``
(normals): a draw is one C-level call, which the simulators make directly.
Within a replication the reads grow geometrically, ``_CHUNK``, 2 ``_CHUNK``, ...
up to the end of the current block, so a replication that needs five uniforms
reads 32 values, and one that needs thousands of normals reads whole blocks.  A
read is a list of Python floats, so the simulators' scalar arithmetic stays
unboxed.  A plain uniform read is clamped on that list, with a fix-up only when
its minimum is below 1e-16; antithetic and normal reads are clamped, flipped
(antithetic) and ``ndtri``-transformed (normal) in numpy first.  The values are
the block's values in order whatever the read sizes.  An exponential is
``log1p(-u) / -rate``, which equals ``-log1p(-u) / rate`` bit for bit (IEEE
division is sign-symmetric).

Reuse.  ``reset(seed, index, antithetic)`` re-keys the same stream for the next
replication by rewriting the key and counter words of kept state dicts, and
empties the list each buffer is reading, so that its iterator's next draw comes
from a new read of the new key.  It builds no bit generator and no iterator.  A
block runner makes one ``Stream`` and resets it per replication.
"""

from __future__ import annotations

import math
from itertools import chain

from ..util import lazy_module

np = lazy_module("numpy")

_BUF = 512  # doubles per stream block
_CHUNK = 32  # doubles in a buffer's first read of a replication
_STEPS = _BUF // 4  # Philox counter steps per block (four 64-bit words a step)
_MASK = (1 << 64) - 1
_LO = 1e-16  # lower clamp; 1 - _LO rounds to 1 - 2^-53, the upper one


class _Feed:
    """One buffer's Philox generator (its ``random`` and ``bit_generator``), the
    counter word its seeks rewrite, its block, the position read within it, the
    length of its next read, the list being read and, for the normal buffer,
    ``ndtri``, whose binding imports ``scipy.special``.  A feed starts with no
    block."""

    __slots__ = ("random", "bit_generator", "state", "counter", "block", "pos", "size",
                 "read", "ndtri")

    def __init__(self, key: list, normal: bool):
        if normal:
            from scipy.special import ndtri
        else:
            ndtri = None
        gen = np.random.Generator(np.random.Philox(0))
        self.random = gen.random
        self.bit_generator = gen.bit_generator
        self.counter = [0, 0, 0, 0]
        # the bit generator's full state, rewritten in place to re-key and seek
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": self.counter, "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.ndtri = ndtri
        self.block = 0
        self.pos = _BUF  # no block yet: reset() gives the uniforms block 0
        self.size = _CHUNK
        self.read = []


class Stream:
    """The draws of one replication: uniforms, exponentials, normals and
    inverse-Gaussian variates from the stream keyed (seed, index).  ``next_u``
    and ``next_n`` return the next uniform and the next normal."""

    __slots__ = ("next_u", "next_n", "_anti", "_key", "_next", "_uf", "_nf")

    def __init__(self, seed: int, index: int, antithetic: bool = False):
        self._key = [0, 0]
        self._uf = _Feed(self._key, normal=False)
        self._nf = None  # built at the first normal draw
        self.next_u = chain.from_iterable(self._reads(False)).__next__
        self.next_n = chain.from_iterable(self._reads(True)).__next__
        self.reset(seed, index, antithetic)

    def reset(self, seed: int, index: int, antithetic: bool = False) -> None:
        """Re-key to (seed, index) and rewind; the next draws are those of a
        fresh ``Stream(seed, index, antithetic)``."""
        self._key[0] = seed & _MASK
        self._key[1] = index & _MASK
        self._anti = antithetic
        uf = self._uf
        uf.read.clear()  # the iterator's next draw starts a new read
        uf.block = 0
        uf.pos = 0
        uf.size = _CHUNK
        nf = self._nf
        if nf is not None:
            nf.read.clear()
            nf.pos = _BUF  # no block yet
            nf.size = _CHUNK
        self._next = 1

    def _normal_feed(self) -> _Feed:
        self._nf = _Feed(self._key, normal=True)
        return self._nf

    def _reads(self, normal: bool):
        # one buffer's reads in order; the normal feed is built at the first pull
        feed = (self._nf or self._normal_feed()) if normal else self._uf
        fill = self._fill
        while True:
            read = feed.read = fill(feed)
            yield read

    def _fill(self, feed: _Feed) -> list:
        if feed.pos == _BUF:  # block used up: take the next one
            feed.block = self._next
            self._next += 1
            feed.pos = 0
        if feed.pos == 0:
            feed.counter[0] = feed.block * _STEPS
            feed.bit_generator.state = feed.state
        n = min(feed.size, _BUF - feed.pos)
        feed.pos += n
        feed.size = min(2 * feed.size, _BUF)
        u = feed.random(n)
        if feed.ndtri is None and not self._anti:
            u = u.tolist()
            if min(u) < _LO:  # a raw 0, raised to the clamp
                u = [_LO if v < _LO else v for v in u]
            return u
        np.maximum(u, _LO, out=u)  # binds at u = 0 alone, flipped to 1 - _LO
        if self._anti:
            np.subtract(1.0, u, out=u)
        if feed.ndtri is not None:
            feed.ndtri(u, out=u)
        return u.tolist()

    def uniform(self) -> float:
        return self.next_u()

    def exponential(self, rate: float) -> float:
        return math.log1p(-self.next_u()) / -rate

    def normal(self) -> float:
        return self.next_n()

    def inverse_gaussian(self, mean: float, shape: float) -> float:
        # Michael-Schucany-Haas; exact first-passage times of drifted Brownian motion
        nu = self.next_n()
        y = nu * nu
        if shape > 0.0:
            x = (
                mean
                + mean * mean * y / (2.0 * shape)
                - (mean / (2.0 * shape)) * math.sqrt(4.0 * mean * shape * y + (mean * y) ** 2)
            )
            if not x > 0.0:
                # cancelled at a tiny mean: the smaller root in the conjugate form
                # m / (1 + f/2 + sqrt(f) sqrt(1 + f/4)), f = m y / shape, keeps its
                # digits (and is 0 where f overflows)
                f = mean * y / shape
                x = mean / (1.0 + 0.5 * f + math.sqrt(f) * math.sqrt(1.0 + 0.25 * f))
        else:  # a shape underflowed to 0: the root's limit
            x = 0.0
        if self.next_u() <= mean / (mean + x):
            return x
        return mean * mean / x
