"""Small Gauss-Legendre quadrature helpers for vectorized integrands.

numpy is taken lazily (``util.lazy_module``); the node cache fills at first use.
"""

from __future__ import annotations

from .errors import NumericalError
from .util import lazy_module

np = lazy_module("numpy")

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
    """Node-doubling Gauss-Legendre integration over [lo, hi] with a convergence check:
    ``gl_pieces`` on one piece."""
    return gl_pieces(f, (lo, hi), tol_rel, n0, nmax, tol_abs)


def gl_pieces(f, cuts, tol_rel: float, n0: int = 16, nmax: int = 1024,
              tol_abs: float = 0.0) -> float:
    """Node-doubling Gauss-Legendre integral over [cuts[0], cuts[-1]]: an n-node rule on
    each interval between consecutive cuts, all nodes in one call of the vectorized f,
    until two levels of the total agree to ``tol_rel`` (or ``tol_abs``).

    Raises NumericalError when they still differ at ``nmax`` nodes an interval.
    """
    edges = np.asarray(cuts, dtype=float)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]
    prev, n = None, n0
    while True:
        xs, ws = _gl_nodes(n)
        cur = float((half * ws).ravel() @ f((mid + half * xs).ravel()))
        if prev is not None and abs(cur - prev) <= max(tol_abs, tol_rel * abs(cur)):
            return cur
        if 2 * n > nmax:
            raise NumericalError(
                f"Gauss-Legendre integral over [{edges[0]:g}, {edges[-1]:g}] in {len(half)} "
                f"pieces did not converge by {n} nodes a piece: last two iterates {prev!r} "
                f"and {cur!r}")
        prev, n = cur, 2 * n
