import numpy as np
import pytest

from levyruin import NumericalError
from levyruin.quadrature import gl_adaptive, gl_pieces


def test_gl_adaptive_raises_when_not_converged():
    with pytest.raises(NumericalError, match=r"\[0, 1\].*last two iterates"):
        gl_adaptive(lambda x: np.sin(1e4 * x), 0.0, 1.0, 1e-10, 1e-10, n0=8, nmax=64)


def test_gl_pieces_sums_one_rule_per_piece():
    got = gl_pieces(lambda v: np.exp(-v), (0.0, 0.1, 5.0, 40.0), 1e-13)
    assert got == pytest.approx(-np.expm1(-40.0), rel=1e-14)
    with pytest.raises(NumericalError, match=r"\[0, 1\] in 2 pieces did not converge by 64"):
        gl_pieces(lambda v: np.sin(1e4 * v), (0.0, 0.5, 1.0), 1e-10, n0=8, nmax=64)
