"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lib import ROOT, import_levyruin  # noqa: E402

SEEDS = (0, 1, 7, 12345)


def _sweep_signature(seed):
    return [(s.family.key, s.indices, s.jitter) for s in workloads.sweep_list(seed)]


def test_generators_are_deterministic_per_seed():
    assert _sweep_signature(3) == _sweep_signature(3)
    assert _sweep_signature(3) != _sweep_signature(4)
    for make in (workloads.validate_pass, workloads.dist_pass):
        assert [make(3, i) for i in range(4)] == [make(3, i) for i in range(4)]
        assert [make(3, i) for i in range(4)] != [make(4, i) for i in range(4)]


def test_sweep_list_visits_every_family_equally():
    counts = {}
    for sweep in workloads.sweep_list(5):
        counts[sweep.family.key] = counts.get(sweep.family.key, 0) + 1
    assert len(counts) == len(workloads.sweep_families())
    assert set(counts.values()) == {workloads.SWEEP_ROUNDS}


def _in_domain(params: dict) -> bool:
    x = params["x"]
    ok = True
    if "b" in params:
        ok &= x <= params["b"]
    if "a" in params:
        ok &= params["a"] >= 0.0 and -params["a"] <= x
    for rate in ("p", "lam", "z", "r"):
        if rate in params:
            ok &= params[rate] > 0.0
    if "q" in params:
        ok &= params["q"] > 0.0
    if "theta" in params:
        ok &= params["theta"] >= 0.0
    if "y" in params:
        ok &= params["y"] <= 0.0
    if "n" in params:
        ok &= isinstance(params["n"], int) and 1 <= params["n"] <= 3
    return ok


@pytest.mark.parametrize("seed", SEEDS)
def test_timed_sweep_inputs_are_in_domain(seed):
    # the lattice ends sit on domain bounds (x = b, x = -a, b = x); the jitter
    # must not push a value across one
    for sweep in workloads.sweep_list(seed):
        for _, params in sweep.points():
            assert _in_domain(params), (sweep.family.key, params)


def test_defect_region_is_apart_from_timed_sweeps():
    timed = {f.key for f in workloads.sweep_families()}
    defect = {f.key for f in workloads.defect_families()}
    assert not timed & defect
    for fam in workloads.defect_families():
        for k in range(workloads.LATTICE):
            params = fam.params(k)
            assert _in_domain(params), (fam.key, params)


def test_reference_covers_every_timed_lattice_point():
    ref = checks.load_reference()
    assert set(ref) == {f.key for f in workloads.sweep_families()}
    assert all(len(row) == workloads.LATTICE and None not in row for row in ref.values())


def test_validate_requests_one_per_supported_pair():
    reqs = workloads.validate_requests()
    pairs = [(r.model, r.identity) for r in reqs if r.params.get("n", 3) <= 3]
    assert len(pairs) == len(set(pairs)) == 27
    assert sum(m == "cl_a" for m, _ in pairs) == 18
    assert len({r.mc_seed for r in reqs}) == len(reqs)
    hybrid = [r for r in reqs if r.params.get("n", 0) >= 4]
    assert {r.model for r in hybrid} == {"cl_a", "bm_a"}
    assert all(4 <= r.params["n"] <= 8 for r in hybrid)
    assert all(r.reps >= 100 for r in reqs)
    assert any(r.reps > workloads.BLOCK for r in reqs)


def test_dist_grid_is_a_quadrature_rule():
    rs, ws = workloads.u_grid(9.0)
    assert float(ws.sum()) == pytest.approx(9.0, rel=1e-12)
    assert float((ws * rs).sum()) == pytest.approx(40.5, rel=1e-12)


def _bindings():
    return {(name, key): id(value)
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "levyruin" or name.startswith("levyruin."))
            for key, value in vars(mod).items()}


def test_traced_run_restores_every_binding():
    import_levyruin()
    import levyruin.occupation
    import levyruin.parisian
    import levyruin.registry
    import levyruin.scale

    before = _bindings()
    phi = levyruin.scale.phi
    with pytest.raises(ZeroDivisionError):
        with spans.patched(spans.Tracer()) as tracer:
            assert levyruin.scale.phi is not phi
            assert levyruin.occupation.phi is levyruin.scale.phi
            assert levyruin.parisian.ruin_prob_erlang2 is not None
            tracer.op = 0
            model = levyruin.LevyModel.brownian(1.0, 2.0 ** 0.5)
            levyruin.registry.evaluate_identity("ruin_prob_erlang2", model,
                                                {"x": 0.5, "lam": 1.3})
            assert tracer.stats("registry.evaluate_identity")[0] == 1
            assert tracer.stats("parisian.ruin_prob_erlang2")[0] == 1
            1 / 0
    assert _bindings() == before
    assert levyruin.scale.phi is phi


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(20000))

    child = tracer.wrap("child", leaf)
    parent = tracer.wrap("parent", lambda: [child() for _ in range(3)])
    parent()
    calls, total, own = tracer.stats("parent")
    c_calls, c_total, c_own = tracer.stats("child")
    assert (calls, c_calls) == (1, 3)
    assert own == pytest.approx(total - c_total, abs=1e-12)
    assert c_own == pytest.approx(c_total, abs=1e-12)
    parent_id = [s for s in tracer.spans if tracer.names[s[2]] == "parent"][0][0]
    assert {s[1] for s in tracer.spans if tracer.names[s[2]] == "child"} == {parent_id}


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    info = type("Info", (), {"hits": 0, "misses": 0, "currsize": 0})
    names = list(spans.layer_metrics(spans.Tracer(), info, info, 0))
    names += list(run.PER_LAYER_EXTRA)
    assert [m["name"] for m in spec["per_layer"]] == names


def test_percentile_matches_linear_rule():
    values = sorted(float(v) for v in range(101))
    assert run.percentile(values, 50.0) == 50.0
    assert run.percentile(values, 99.0) == 99.0
    assert run.percentile([1.0, 2.0], 50.0) == 1.5


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
