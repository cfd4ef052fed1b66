import numpy as np
import pytest

from levyruin import NumericalError
from levyruin.quadrature import gl_adaptive


def test_gl_adaptive_raises_when_not_converged():
    with pytest.raises(NumericalError, match=r"\[0, 1\].*last two iterates"):
        gl_adaptive(lambda x: np.sin(1e4 * x), 0.0, 1.0, 1e-10, 1e-10, n0=8, nmax=64)
