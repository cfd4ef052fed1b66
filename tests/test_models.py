import dataclasses
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levyruin import DomainError, LevyModel, phi, psi, psi_prime, transition


def phi_closed_brownian(m, q):
    # closed form used only as a test oracle
    return (math.sqrt(m.mu ** 2 + 2.0 * m.sigma ** 2 * q) - m.mu) / m.sigma ** 2


def phi_closed_cl(m, q):
    c, eta, alpha = m.c, m.eta, m.alpha
    return (q + eta - c * alpha + math.sqrt((q + eta - c * alpha) ** 2 + 4 * c * alpha * q)) / (
        2.0 * c
    )


def test_psi_examples(bm, cl):
    assert psi(bm, 1.0) == pytest.approx(1.0 * 1.0 + 0.5 * 2.0 * 1.0, rel=1e-15)
    assert psi(bm, 0.0) == 0.0
    assert psi(cl, 0.0) == 0.0
    assert psi(cl, 1.0) == pytest.approx(1.0 - 1.0 + 2.0 * 1.0 / 3.0, rel=1e-15)


def test_psi_input_validation(bm):
    with pytest.raises(DomainError):
        psi(bm, float("nan"))
    with pytest.raises(DomainError):
        psi(bm, -0.5)


def test_psi_prime_examples(bm, cl):
    assert psi_prime(bm, 0.0) == pytest.approx(1.0, abs=0)
    assert psi_prime(cl, 0.0) == pytest.approx(1.0 - 1.0 / 2.0, rel=1e-15)
    assert psi_prime(bm, 1.0) == pytest.approx(1.0 + 2.0 * 1.0, rel=1e-15)


def test_psi_prime_matches_finite_differences(model):
    for theta in np.linspace(0.01, 10.0, 23):
        h = 1e-6 * (1.0 + theta)
        fd = (psi(model, theta + h) - psi(model, theta - h)) / (2.0 * h)
        assert psi_prime(model, theta) == pytest.approx(fd, rel=1e-7)


def test_psi_convex(model):
    grid = np.linspace(0.0, 8.0, 80)
    h = 1e-3
    for theta in grid[1:]:
        second = (psi(model, theta + h) - 2 * psi(model, theta) + psi(model, theta - h)) / h**2
        assert second >= -1e-9


def test_phi_examples(bm, cl):
    assert phi(bm, 2.0) == pytest.approx(phi_closed_brownian(bm, 2.0), rel=1e-13)
    assert phi(bm, 2.0) == pytest.approx(1.0, rel=1e-13)
    assert phi(bm, 0.0) == 0.0
    assert phi(cl, 0.0) == 0.0
    assert phi(cl, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert phi(cl, 1.0) == pytest.approx(phi_closed_cl(cl, 1.0), rel=1e-13)


def test_phi_inverts_psi_on_grid(model):
    for q in np.concatenate([np.linspace(0.0, 1.0, 11), np.linspace(1.5, 100.0, 40)]):
        root = phi(model, q)
        assert psi(model, root) == pytest.approx(q, rel=1e-12, abs=1e-12)


def test_phi_negative_drift_positive_root():
    sinking = LevyModel.brownian(-1.0, 1.0)
    root = phi(sinking, 0.0)
    assert root == pytest.approx(2.0, rel=1e-12)  # -2 mu / sigma^2


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=1e-6, max_value=50.0),
)
def test_phi_strictly_increasing(q1, delta):
    m = LevyModel.cramer_lundberg(1.0, 1.0, 2.0)
    assert phi(m, q1 + delta) > phi(m, q1)


def test_transition_brownian(bm):
    td = transition(bm, 1.0)
    assert td.atom_mass == 0.0
    assert td.density(np.array([1.0]))[0] == pytest.approx(1.0 / math.sqrt(4.0 * math.pi), rel=1e-12)
    mass, _ = quad(lambda zz: float(td.density(zz)), td.lower, td.upper, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_transition_cl_atom_and_mass(cl):
    td = transition(cl, 1.0)
    assert td.atom_location == pytest.approx(1.0)
    assert td.atom_mass == pytest.approx(math.exp(-1.0), rel=1e-14)
    mass, _ = quad(lambda zz: float(td.density(zz)), td.lower, td.upper, limit=300)
    assert td.atom_mass + mass == pytest.approx(1.0, abs=1e-10)


def test_transition_rejects_bad_r(model):
    with pytest.raises(DomainError):
        transition(model, 0.0)
    with pytest.raises(DomainError):
        transition(model, -1.0)


def test_model_validation():
    with pytest.raises(DomainError):
        LevyModel.brownian(1.0, 0.0)  # monotone paths excluded
    with pytest.raises(DomainError):
        LevyModel.cramer_lundberg(0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        LevyModel(kind="stable")
    # negative-drift models are constructible; drift-requiring ops reject later
    sinking = LevyModel.cramer_lundberg(0.25, 1.0, 2.0)
    assert sinking.mean() < 0.0
    with pytest.raises(DomainError):
        sinking.require_positive_drift("test op")


def test_model_from_dict_schema(bm, cl):
    from levyruin import model_from_dict

    assert model_from_dict({"kind": "brownian", "mu": 1.0, "sigma": bm.sigma}) == bm
    assert model_from_dict({"kind": "cramer_lundberg", "c": 1.0, "eta": 1.0, "alpha": 2.0}) == cl
    with pytest.raises(DomainError):
        model_from_dict({"kind": "brownian", "mu": 1.0, "sigma": 1.0, "c": 2.0})
    with pytest.raises(DomainError):
        model_from_dict({"kind": "brownian", "mu": 1.0})
    with pytest.raises(DomainError):
        model_from_dict({"mu": 1.0, "sigma": 1.0})


def test_model_hash_is_cached_and_process_independent():
    cl = LevyModel.cramer_lundberg(1, 1, 2)
    bm = LevyModel.brownian(1.0, math.sqrt(2.0))
    assert cl == LevyModel.cramer_lundberg(1.0, 1.0, 2.0)
    assert hash(cl) == hash(LevyModel.cramer_lundberg(1.0, 1.0, 2.0))
    assert hash(cl) == hash(dataclasses.replace(LevyModel.cramer_lundberg(1, 1, 3), alpha=2.0))
    for m in (cl, bm):
        back = pickle.loads(pickle.dumps(m))
        assert back == m and hash(back) == hash(m)
    # the cached hash is not a field: fields, asdict, repr and == are the dataclass's
    assert [f.name for f in dataclasses.fields(cl)] == ["kind", "mu", "sigma", "c", "eta", "alpha"]
    assert dataclasses.asdict(cl) == {"kind": "cramer_lundberg", "mu": 0.0, "sigma": 0.0,
                                      "c": 1.0, "eta": 1.0, "alpha": 2.0}
    assert repr(cl) == ("LevyModel(kind='cramer_lundberg', mu=0.0, sigma=0.0, c=1.0, "
                        "eta=1.0, alpha=2.0)")
    assert cl != LevyModel.cramer_lundberg(1.0, 1.0, 2.5) and cl != bm
    # string hashes change with PYTHONHASHSEED; the model's must not, so that a model
    # pickled to a spawn-started worker still finds its cache entries
    code = ("import math; from levyruin import LevyModel; "
            "print(hash(LevyModel.cramer_lundberg(1, 1, 2)), "
            "hash(LevyModel.brownian(1.0, math.sqrt(2.0))))")
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        assert out.split() == [str(hash(cl)), str(hash(bm))]
