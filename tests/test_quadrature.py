import numpy as np
import pytest

from levyruin import NumericalError
from levyruin.quadrature import gl_adaptive, gl_batch, gl_pieces


def test_gl_adaptive_raises_when_not_converged():
    with pytest.raises(NumericalError, match=r"\[0, 1\].*last two iterates"):
        gl_adaptive(lambda x: np.sin(1e4 * x), 0.0, 1.0, 1e-10, 1e-10, n0=8, nmax=64)


def test_gl_batch_integrates_each_row_to_its_own_end():
    hi = np.array([1.0, 0.0, 3.0, 40.0])
    rates = np.array([0.5, 1.0, 2.0, 0.1])
    got = gl_batch(lambda rows, v: np.exp(-rates[rows, None] * v), hi, 1e-12)
    assert np.allclose(got, -np.expm1(-rates * hi) / rates, rtol=1e-13, atol=0.0)
    with pytest.raises(NumericalError, match="did not converge by 64 nodes"):
        gl_batch(lambda rows, v: np.sin(1e4 * v), np.array([1.0]), 1e-10, n0=8, nmax=64)


def test_gl_pieces_sums_one_rule_per_piece():
    got = gl_pieces(lambda v: np.exp(-v), (0.0, 0.1, 5.0, 40.0), 1e-13)
    assert got == pytest.approx(-np.expm1(-40.0), rel=1e-14)
    with pytest.raises(NumericalError, match=r"\[0, 1\] in 2 pieces did not converge by 64"):
        gl_pieces(lambda v: np.sin(1e4 * v), (0.0, 0.5, 1.0), 1e-10, n0=8, nmax=64)
