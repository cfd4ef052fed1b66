"""The rate-part cache: a level step reads the same bits from a hit as from a miss.

Every identity builds what reads neither x nor b once per rate tuple through
``scale.rate_part``.  These tests evaluate the benchmark's sweep lattices with every
cache of ``levyruin.scale`` cleared before each call and again in grid order with
the caches warm, and require the same hex (or the same exception) point for point.
"""

import math
import sys
from pathlib import Path

import pytest

from levyruin import DomainError, LevyModel, occupation, parisian, scale
from levyruin.models import model_from_dict
from levyruin.registry import evaluate_identity

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (bench/workloads.py imports nothing from levyruin)

MODELS = {key: model_from_dict(spec) for key, spec in workloads.MODELS.items()}
# x < 0 points for every identity: -a <= x holds at BASE's a = 1
BELOW = (-0.3, -0.8)


def _clear_caches() -> None:
    for obj in vars(scale).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _outcome(name: str, model: LevyModel, params: dict) -> str:
    try:
        return float(evaluate_identity(name, model, params)[0]).hex()
    except Exception as exc:  # an exception must be the same from a hit
        return f"{type(exc).__name__}: {exc}"


def _grids(model_key: str) -> list:
    # (identity, [params, ...]) in grid order: each sweep family's lattice on this model,
    # then the x < 0 points of every identity, each after a point x > 0 at its rates
    out = [(fam.identity, [fam.params(k) for k in range(len(fam.lattice))])
           for fam in workloads.sweep_families() if fam.model == model_key]
    for name, names in workloads.SWEEP_IDENTITIES.items():
        base = {n: workloads.BASE[n] for n in names}
        out.append((name, [dict(base, x=x) for below in BELOW for x in (base["x"], below)]))
    return out


@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_a_warm_cache_gives_the_cold_bits(model_key):
    model = MODELS[model_key]
    grids = _grids(model_key)
    cold = []
    for name, points in grids:
        for params in points:
            _clear_caches()
            cold.append(_outcome(name, model, params))
    _clear_caches()
    warm = [_outcome(name, model, params) for name, points in grids for params in points]
    assert warm == cold
    assert all(v.lstrip("-").startswith("0x") for v in warm)  # every point is a value


@pytest.mark.parametrize("axis", ["y", "theta", "q"])
@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_signed_zero_rates_share_a_key_and_its_bits(model_key, axis):
    # lru_cache takes 0.0 and -0.0 as one key: the value from -0.0 served by the entry
    # +0.0 built (and the other way round) is the value each gives cold
    model = MODELS[model_key]
    for name, names in workloads.SWEEP_IDENTITIES.items():
        if axis not in names:
            continue
        base = {n: workloads.BASE[n] for n in names}
        for x in (workloads.BASE["x"], BELOW[0]):
            pos, neg = dict(base, x=x, **{axis: 0.0}), dict(base, x=x, **{axis: -0.0})
            _clear_caches()
            cold_pos = _outcome(name, model, pos)
            _clear_caches()
            cold_neg = _outcome(name, model, neg)
            _clear_caches()
            assert (_outcome(name, model, pos), _outcome(name, model, neg)) == (cold_pos, cold_neg)
            _clear_caches()
            assert (_outcome(name, model, neg), _outcome(name, model, pos)) == (cold_neg, cold_pos)
            assert cold_pos == cold_neg, (name, x)


def test_rate_part_cache_is_bounded(cl):
    maxsize = scale.rate_part.cache_info().maxsize
    assert maxsize == scale.RATE_PART_CACHE
    for i in range(maxsize + 100):
        evaluate_identity("joint_lt_upcross", cl,
                          {"x": 0.5, "b": 2.0, "q": 0.01 + 1e-4 * i, "p": 0.7, "lam": 1.3})
    assert scale.rate_part.cache_info().currsize <= maxsize


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_rate_raises_on_every_call_and_stores_nothing(bad, bm, cl):
    for model in (bm, cl):
        for name, names in workloads.SWEEP_IDENTITIES.items():
            fn = getattr(occupation, name.lower(), None) or getattr(parisian, name.lower())
            base = {n: workloads.BASE[n] for n in names}
            for rate in names:
                if rate in ("x", "b", "n"):
                    continue
                args = [bad if n == rate else base[n] for n in names]
                _clear_caches()
                for _ in range(2):
                    with pytest.raises(DomainError, match="requires a finite"):
                        fn(model, *args)
                assert scale.rate_part.cache_info().currsize == 0, (name, rate)
