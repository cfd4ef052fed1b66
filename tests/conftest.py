import math

import pytest
from hypothesis import settings

from levyruin import LevyModel

# property tests draw the same examples on every run, as the Monte Carlo gates
# use fixed seeds
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def bm():
    # Brownian risk with mu = 1, sigma^2 = 2
    return LevyModel.brownian(1.0, math.sqrt(2.0))


@pytest.fixture(scope="session")
def cl():
    # Cramer-Lundberg with c = 1, eta = 1, alpha = 2 (E[X_1] = 0.5)
    return LevyModel.cramer_lundberg(1.0, 1.0, 2.0)


@pytest.fixture(scope="session", params=["bm", "cl"])
def model(request, bm, cl):
    return bm if request.param == "bm" else cl
