"""Small Gauss-Legendre quadrature helpers for vectorized integrands."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _NODE_CACHE:
        _NODE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _NODE_CACHE[n]


def gl_fixed(f, lo: float, hi: float, n: int) -> float:
    """n-node Gauss-Legendre integral of a vectorized integrand over [lo, hi]."""
    if hi <= lo:
        return 0.0
    xs, ws = _gl_nodes(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return float(half * np.dot(ws, f(mid + half * xs)))


def gl_adaptive(f, lo: float, hi: float, tol_abs: float, tol_rel: float,
                n0: int = 64, nmax: int = 1024) -> float:
    """Node-doubling Gauss-Legendre integration with a convergence check.

    Raises NumericalError when two successive levels up to ``nmax`` nodes still
    differ by more than the tolerance.
    """
    prev = gl_fixed(f, lo, hi, n0)
    n = 2 * n0
    while True:
        cur = gl_fixed(f, lo, hi, n)
        if abs(cur - prev) <= max(tol_abs, tol_rel * abs(cur)):
            return cur
        if 2 * n > nmax:
            raise NumericalError(
                f"Gauss-Legendre integral over [{lo:g}, {hi:g}] did not converge by {n} "
                f"nodes: last two iterates {prev!r} and {cur!r}"
            )
        prev = cur
        n *= 2
