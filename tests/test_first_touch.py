"""numpy is loaded lazily, at the first attribute access of any module that uses it
(``levyruin.util.lazy_module``).  Each consumer must then work when it is the first to
touch numpy, in a fresh interpreter, with the bits of a process where numpy was
already loaded; and numpy imported before the library is the module it uses."""

import math
import subprocess
import sys

import numpy as np

from levyruin import LevyModel, occupation_law, transition
from levyruin.mc import EscapeLevel, McConfig, PathFunctional, Stream, estimate
from levyruin.quadrature import gl_pieces

CL_A = LevyModel.cramer_lundberg(1.0, 1.0, 2.0)
BM_A = LevyModel.brownian(1.0, math.sqrt(2.0))
_MODELS = ("import math\nfrom levyruin import LevyModel\n"
           "cl_a, bm_a = LevyModel.cramer_lundberg(1, 1, 2), LevyModel.brownian(1, math.sqrt(2))")


def _fresh(setup: str, expr: str) -> list:
    # the hex of each value of expr in a fresh interpreter after setup, which must
    # leave every numpy module unloaded, and expr loads numpy
    code = (f"import sys\n{_MODELS}\n{setup}\n"
            "assert not [m for m in sys.modules if m.startswith('numpy.')]\n"
            f"values = ({expr},)\n"
            "assert [m for m in sys.modules if m.startswith('numpy.')]\n"
            "print(*(float(v).hex() for v in values))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True).stdout.split()


def test_occupation_densities_touch_numpy_first():
    setup = "from levyruin import occupation_law"
    assert _fresh(setup, "occupation_law(cl_a, 0.5, 1).density(1.0)") == [
        occupation_law(CL_A, 0.5, 1.0).density(1.0).hex()]
    # the Brownian densities are math alone, from above and below 0
    code = (f"import sys\n{_MODELS}\n{setup}\n"
            "values = (occupation_law(bm_a, 0.5, 1).density(1.0),\n"
            "          occupation_law(bm_a, -0.5, 1).density(1.0))\n"
            "assert not [m for m in sys.modules if m.startswith('numpy.')]\n"
            "print(*(v.hex() for v in values))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == [occupation_law(BM_A, x, 1.0).density(1.0).hex() for x in (0.5, -0.5)]


def test_stream_touches_numpy_first():
    assert _fresh("from levyruin.mc import Stream", "Stream(1, 0).normal()") == [
        "-0x1.83179f98d2d8cp+0"]
    assert Stream(1, 0).normal().hex() == "-0x1.83179f98d2d8cp+0"


_ESTIMATE = ("from levyruin.mc import EscapeLevel, McConfig, PathFunctional, estimate\n"
             "config = McConfig(replications=1000, seed=7, horizon=EscapeLevel(12.0))\n"
             "fn = PathFunctional('rho_sum_exp', {'p': 0.7, 'lam': 1.3}, x0=0.5)")


def _warm_estimate() -> list:
    warm = estimate(CL_A, McConfig(replications=1000, seed=7, horizon=EscapeLevel(12.0)),
                    PathFunctional("rho_sum_exp", {"p": 0.7, "lam": 1.3}, x0=0.5))
    return [warm.value.hex(), warm.std_error.hex()]


def test_estimate_touches_numpy_first():
    assert _fresh(_ESTIMATE, "*(lambda e: (e.value, e.std_error))(estimate(cl_a, config, fn))"
                  ) == _warm_estimate()


def test_cramer_lundberg_estimate_loads_no_scipy():
    # a Cramer-Lundberg campaign draws no normal, so its streams never bind ndtri
    code = (f"import sys\n{_MODELS}\n{_ESTIMATE}\n"
            "e = estimate(cl_a, config, fn)\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
            "print(e.value.hex(), e.std_error.hex())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == _warm_estimate()


def test_quadrature_and_transition_touch_numpy_first():
    assert _fresh("from levyruin.quadrature import gl_pieces",
                  "gl_pieces(lambda u: u * u, (0.0, 1.0, 2.0), 1e-12)") == [
        gl_pieces(lambda u: u * u, (0.0, 1.0, 2.0), 1e-12).hex()]
    assert _fresh("from levyruin import transition",
                  "transition(cl_a, 1.0).density(0.5)") == [
        float(transition(CL_A, 1.0).density(0.5)).hex()]


def test_numpy_imported_first_is_the_module_the_library_uses():
    code = ("import numpy\nimport levyruin.models, levyruin.occupation, levyruin.quadrature\n"
            "import levyruin.mc.driver, levyruin.mc.streams\n"
            "mods = (levyruin.models, levyruin.occupation, levyruin.quadrature, "
            "levyruin.mc.driver, levyruin.mc.streams)\n"
            "assert all(m.np is numpy for m in mods)\n"
            "print(type(numpy.zeros(1)).__name__)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.strip()
    assert out == "ndarray"
    # here the test modules and the library share one numpy, whichever came first
    import levyruin.models

    assert levyruin.models.np is np
