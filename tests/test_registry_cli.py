import inspect
import json
import math

import numpy as np
import pytest

from levyruin import DomainError, UsageError
from levyruin.cli import main
from levyruin.registry import (
    IDENTITIES,
    _coerce_params,
    evaluate_identity,
    identity_names,
    mc_counterpart,
    validatable_names,
)

# the stable identity names the batch surface must expose, exactly
INTERFACE_NAMES = {
    "joint_lt_upcross", "lt_occupation_inf", "occupation_law", "ruin_prob_sum_exp",
    "gs_lt_two_sided", "gs_lt_infinite", "up_cross_three_barrier", "up_cross_before_ruin",
    "gerber_shiu_density", "lt_occupation_exp_horizon", "ruin_prob_erlang2",
    "gs_density_e2", "gs_lt_two_sided_e2", "gs_lt_infinite_e2", "up_cross_e2",
    "ruin_prob_erlang_n", "fixed_delay_approx", "T0_joint_lt",
    "upcross_before_T0_two_sided", "upcross_before_T0", "delayed_W_functional",
}

# one valid parameter set per identity, used by the eval-reachability test
SAMPLE_PARAMS = {
    "joint_lt_upcross": {"x": 0.0, "b": 1.0, "q": 0.0, "p": 2.0, "lam": 2.0},
    "lt_occupation_inf": {"x": 0.0, "p": 2.0, "lam": 2.0},
    "occupation_law": {"x": 0.0, "lam": 2.0, "r": 1.0},
    "ruin_prob_sum_exp": {"x": 0.0, "p": 2.0, "lam": 2.0},
    "gs_lt_two_sided": {"x": 0.0, "b": 1.0, "q": 0.5, "p": 1.0, "lam": 1.0, "theta": 0.3},
    "gs_lt_infinite": {"x": 0.5, "q": 0.5, "p": 1.0, "lam": 1.0, "theta": 0.0},
    "up_cross_three_barrier": {"x": 0.5, "b": 2.0, "a": 1.0, "q": 0.05, "p": 0.5, "lam": 1.0},
    "up_cross_before_ruin": {"x": 0.0, "b": 1.0, "q": 0.0, "p": 2.0, "lam": 2.0},
    "gerber_shiu_density": {"x": 0.5, "b": 2.0, "q": 0.1, "p": 0.7, "lam": 1.3, "y": -0.5},
    "lt_occupation_exp_horizon": {"x": 0.5, "p": 1.0, "q": 0.2, "lam": 1.0},
    "ruin_prob_erlang2": {"x": 0.0, "lam": 2.0},
    "gs_density_e2": {"x": 0.5, "b": 2.0, "q": 0.1, "lam": 1.3, "y": -0.5},
    "gs_lt_two_sided_e2": {"x": 0.5, "b": 2.0, "q": 0.1, "lam": 1.3, "theta": 0.3},
    "gs_lt_infinite_e2": {"x": 0.0, "q": 0.5, "lam": 1.0, "theta": 0.0},
    "up_cross_e2": {"x": 0.5, "b": 2.0, "q": 0.1, "lam": 1.3},
    "ruin_prob_erlang_n": {"x": 0.4, "lam": 1.3, "n": 2},
    "fixed_delay_approx": {"x": 0.5, "r": 1.0, "n": 2},
    "T0_joint_lt": {"x": 0.3, "b": 1.5, "q": 0.2, "lam": 1.0, "theta": 0.5},
    "upcross_before_T0_two_sided": {"x": 0.5, "b": 2.0, "a": 1.0, "q": 0.1, "lam": 1.0},
    "upcross_before_T0": {"x": 0.0, "b": 1.0, "q": 0.3, "lam": 1.0},
    "delayed_W_functional": {"x": 0.5, "b": 2.0, "a": 1.0, "q": 0.1, "lam": 1.0, "p": 0.7,
                             "z": 0.8},
}


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    bm_path = d / "bm.json"
    bm_path.write_text(json.dumps({"kind": "brownian", "mu": 1.0, "sigma": math.sqrt(2.0)}))
    cl_path = d / "cl.json"
    cl_path.write_text(json.dumps({"kind": "cramer_lundberg", "c": 1.0, "eta": 1.0, "alpha": 2.0}))
    return str(bm_path), str(cl_path)


def test_registry_equals_interface_list():
    assert set(IDENTITIES) == INTERFACE_NAMES
    assert set(SAMPLE_PARAMS) == INTERFACE_NAMES


def test_every_identity_reachable_from_eval(model_files, capsys):
    _, cl_path = model_files
    for name in identity_names():
        args = ["eval", name, "--model", cl_path]
        args += [f"--{k}={v}" for k, v in SAMPLE_PARAMS[name].items()]
        assert main(args) == 0, f"eval failed for {name}: {capsys.readouterr()}"
        out = capsys.readouterr().out
        assert "value" in out


def test_registry_strict_param_checking(cl):
    with pytest.raises(UsageError):
        evaluate_identity("ruin_prob_erlang2", cl, {"x": 0.0, "lam": 2.0, "bogus": 1.0})
    with pytest.raises(UsageError):
        evaluate_identity("ruin_prob_erlang2", cl, {"x": 0.0})
    with pytest.raises(UsageError):
        evaluate_identity("ruin_prob_erlang_n", cl, {"x": 0.0, "lam": 2.0, "n": 2.5})


def test_coerce_params_pins():
    ident = IDENTITIES["ruin_prob_erlang_n"]  # params x, lam and the integer n
    # unknown keys are reported before missing ones, and names are listed sorted
    with pytest.raises(UsageError, match=r"^unknown parameters for ruin_prob_erlang_n: "
                                         r"\['b', 'zz'\]$"):
        _coerce_params(ident, {"zz": 1.0, "x": 0.4, "b": 1.0})
    with pytest.raises(UsageError, match=r"^missing parameters for ruin_prob_erlang_n: "
                                         r"\['lam', 'n'\]$"):
        _coerce_params(ident, {"x": 0.4})
    for key in ("x", "n"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(UsageError, match=f"^parameter {key} must be finite"):
                _coerce_params(ident, {"x": 0.4, "lam": 1.3, "n": 2, key: bad})
    with pytest.raises(UsageError, match="^parameter n must be an integer$"):
        _coerce_params(ident, {"x": 0.4, "lam": 1.3, "n": 2.5})
    # numpy floats and numeric strings are accepted; the result keeps signature order
    out = _coerce_params(ident, {"n": 3.0, "lam": np.float64(1.3), "x": "0.4"})
    assert list(out) == ["x", "lam", "n"] == list(ident.params)
    assert out == {"x": 0.4, "lam": 1.3, "n": 3}
    assert [type(v) for v in out.values()] == [float, float, int]


def test_registry_reads_parameters_from_signatures():
    for name, ident in IDENTITIES.items():
        fn = getattr(ident.module, name.lower())
        assert ident.params == tuple(inspect.signature(fn).parameters)[1:], name
        assert set(ident.params) == set(SAMPLE_PARAMS[name]), name


@pytest.mark.parametrize("name", sorted(INTERFACE_NAMES))
def test_evaluation_looks_the_function_up_at_every_call(name, cl, monkeypatch):
    # a rebinding of the implementing function is what the next evaluation calls
    ident = IDENTITIES[name]
    original, calls = getattr(ident.module, name.lower()), []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(ident.module, name.lower(), counting)
    value, _ = evaluate_identity(name, cl, SAMPLE_PARAMS[name])
    assert calls == [name]
    assert math.isfinite(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(INTERFACE_NAMES))
def test_library_rejects_non_finite_arguments(name, bad, bm, cl):
    # a nan passes every comparison-based domain check, so each identity checks
    # finiteness first; called directly, not through the registry's UsageError
    fn = getattr(IDENTITIES[name].module, name.lower())
    for model in (bm, cl):
        for key in SAMPLE_PARAMS[name]:
            with pytest.raises(DomainError):
                fn(model, **{**SAMPLE_PARAMS[name], key: bad})


def test_erlang_n_returns_a_float(cl):
    from levyruin import ruin_prob_erlang_n

    assert type(ruin_prob_erlang_n(cl, 0.4, 1.3, 2)) is float


@pytest.mark.parametrize("text, message", [
    ("{", "model file is not valid JSON"),
    ('{"kind": "brownian", "mu": 1, "sigma": -1}', "bad model file"),
])
def test_cli_bad_model_file_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["eval", "ruin_prob_erlang2", "--model", str(path), "--x=0", "--lam=2"]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {message}")


def test_mc_counterpart_registry(cl):
    assert "ruin_prob_sum_exp" in validatable_names()
    assert "gerber_shiu_density" not in validatable_names()
    with pytest.raises(KeyError):
        from levyruin.mc import EscapeLevel, McConfig

        mc_counterpart("gerber_shiu_density", cl,
                       SAMPLE_PARAMS["gerber_shiu_density"],
                       McConfig(replications=100, seed=1, horizon=EscapeLevel(10.0)))


def test_cli_exit_codes(model_files, capsys):
    bm_path, cl_path = model_files
    # unknown identity: 2, with the registry listing
    assert main(["eval", "nope", "--model", bm_path]) == 2
    err = capsys.readouterr().err
    assert "ruin_prob_erlang2" in err
    # missing parameter: 2
    assert main(["eval", "ruin_prob_erlang2", "--model", bm_path, "--x=0"]) == 2
    # unknown parameter: 2
    assert main(["eval", "ruin_prob_erlang2", "--model", bm_path, "--x=0", "--lam=2",
                 "--oops=1"]) == 2
    # domain error (pole): 3, naming the removable point
    assert main(["eval", "gs_lt_two_sided", "--model", cl_path, "--x=-0.5", "--b=1", "--q=0.5",
                 "--p=1", "--lam=1", "--theta=2.0"]) == 3
    err = capsys.readouterr().err
    assert "removable" in err
    # precondition (drift) via a sinking model: 3
    import json as _json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        _json.dump({"kind": "cramer_lundberg", "c": 0.25, "eta": 1.0, "alpha": 2.0}, fh)
        sink = fh.name
    assert main(["eval", "ruin_prob_erlang2", "--model", sink, "--x=0", "--lam=2"]) == 3
    # bad model file: 2
    assert main(["eval", "ruin_prob_erlang2", "--model", "/nonexistent.json", "--x=0",
                 "--lam=2"]) == 2
    # non-finite parameter: 2
    assert main(["eval", "lt_occupation_inf", "--model", bm_path, "--x=nan", "--p=2",
                 "--lam=2"]) == 2
    assert main(["eval", "ruin_prob_erlang_n", "--model", cl_path, "--x=0.4", "--lam=1.3",
                 "--n=inf"]) == 2
    # no replications: 2
    assert main(["validate", "ruin_prob_sum_exp", "--model", cl_path, "--x=0.5", "--p=1",
                 "--lam=1", "--reps", "0"]) == 2


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_cli_validate_rejects_workers_below_one(model_files, capsys, monkeypatch, workers):
    # a usage error (exit 2) before any campaign: no pool is started
    from levyruin.mc import driver

    def no_pool(max_workers):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(driver, "ProcessPoolExecutor", no_pool)
    _, cl_path = model_files
    assert main(["validate", "ruin_prob_sum_exp", "--model", cl_path, "--x=0.5", "--p=1",
                 "--lam=1", "--reps", "1000", "--workers", workers]) == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(model_files, capsys):
    _, cl_path = model_files
    # delayed_W_functional at q = 150 is a value (an 80-digit evaluation gives
    # 2.011142637641e-5), not a cancellation failure
    assert main(["eval", "delayed_W_functional", "--model", cl_path, "--x=0.5", "--b=2",
                 "--a=1", "--q=150", "--lam=1.3", "--p=0.7", "--z=0.5"]) == 0
    value = float(capsys.readouterr().out.strip().splitlines()[-1].split()[-1])
    assert value == pytest.approx(2.011142637641e-5, rel=1e-11)
    # an ArithmeticError (W_p(X + z) at p = 1e20 is beyond the float range) and a
    # NumericalError (an Erlang(2) rate whose root lies within 1e-300 of the pole of
    # psi) both exit 4 with a one-line message, not a traceback
    assert main(["eval", "delayed_W_functional", "--model", cl_path, "--x=0.5", "--b=2",
                 "--a=1", "--q=0.1", "--lam=1.3", "--p=1e20", "--z=0.5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error (OverflowError)")
    assert len(err.strip().splitlines()) == 1
    # a delay rate that q absorbs (q + 1 is not 1 more than q = 1e16) exits 4 too
    assert main(["eval", "delayed_W_functional", "--model", cl_path, "--x=0.5", "--b=1",
                 "--a=1", "--q=1e16", "--lam=1", "--p=1", "--z=0.5"]) == 4
    assert "absorbs" in capsys.readouterr().err
    assert main(["eval", "gs_density_e2", "--model", cl_path, "--x=0.5", "--b=2",
                 "--q=0.1", "--lam=1e300", "--y=-0.5"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error (NumericalError)")
    assert len(err.strip().splitlines()) == 1


def test_cli_delayed_w_beyond_lower_barrier(model_files, capsys):
    # z = a evaluates; z > a is a domain error (exit 3) for eval and validate alike
    _, cl_path = model_files
    args = ["--model", cl_path, "--x=0.5", "--b=2", "--a=1", "--q=0.1", "--lam=1.3", "--p=0.7"]
    assert main(["eval", "delayed_W_functional", *args, "--z=1"]) == 0
    for zs in ("1.5", "2.6"):
        assert main(["eval", "delayed_W_functional", *args, f"--z={zs}"]) == 3
        assert main(["validate", "delayed_W_functional", *args, f"--z={zs}",
                     "--reps", "100"]) == 3
    err = capsys.readouterr().err
    assert "z <= a" in err and "Traceback" not in err


def test_cli_eval_value(model_files, capsys):
    bm_path, _ = model_files
    assert main(["eval", "ruin_prob_erlang2", "--model", bm_path, "--x=0", "--lam=2"]) == 0
    out = capsys.readouterr().out
    value = float(out.strip().splitlines()[-1].split()[-1])
    assert value == pytest.approx(0.25, rel=1e-12)


def test_cli_validate_pass_and_json(model_files, capsys, tmp_path):
    _, cl_path = model_files
    out_file = tmp_path / "report.json"
    code = main(["validate", "ruin_prob_sum_exp", "--model", cl_path, "--x=0.5", "--p=1",
                 "--lam=1", "--reps", "20000", "--seed", "42", "--out", str(out_file)])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["verdict"] == "pass"
    assert abs(report["z_score"]) <= 3.0
    assert {"value", "std_error", "replications", "truncation_bound"} <= set(report["mc"])
    table = capsys.readouterr().out
    assert "verdict" in table


def test_cli_validate_informational_below_rep_floor(model_files):
    _, cl_path = model_files
    code = main(["validate", "ruin_prob_sum_exp", "--model", cl_path, "--x=0.5", "--p=1",
                 "--lam=1", "--reps", "1", "--seed", "42"])
    assert code == 0  # informational verdict, mechanically runs


def test_cli_validate_no_counterpart(model_files, capsys):
    _, cl_path = model_files
    code = main(["validate", "gerber_shiu_density", "--model", cl_path, "--x=0.5", "--b=2",
                 "--q=0.1", "--p=0.7", "--lam=1.3", "--y=-0.5"])
    assert code == 2
    assert "validatable" in capsys.readouterr().err


def test_cli_validate_unsupported_model_combo(model_files, capsys):
    bm_path, _ = model_files
    # lower-barrier functionals are CL-only
    code = main(["validate", "up_cross_three_barrier", "--model", bm_path, "--x=0.5",
                 "--b=2", "--a=1", "--q=0.05", "--p=0.5", "--lam=1", "--reps", "1000"])
    assert code == 2


def test_cli_sweep_csv_roundtrip(model_files, capsys, tmp_path, bm):
    bm_path, _ = model_files
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "ruin_prob_erlang_n", "--model", bm_path, "--grid", "n=1,2,3",
                 "--x=0.5", "--lam=2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    values = [float(r[1]) for r in rows]
    assert values[0] >= values[1] >= values[2]  # nonincreasing in n
    # bit-exact roundtrip against direct evaluation
    from levyruin import ruin_prob_erlang_n

    for n, v in zip((1, 2, 3), values):
        assert v == ruin_prob_erlang_n(bm, 0.5, 2.0, n)


def test_cli_erlang_n_is_closed_form_at_every_n(model_files, capsys, tmp_path, cl):
    # eval and sweep take no Monte Carlo flags: every n is closed-form
    _, cl_path = model_files
    assert main(["eval", "ruin_prob_erlang_n", "--model", cl_path, "--x=0.5", "--lam=1.3",
                 "--n=8"]) == 0
    out = capsys.readouterr().out
    assert "extra" not in out
    assert 0.0 < float(out.strip().splitlines()[-1].split()[-1]) < 1.0
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "ruin_prob_erlang_n", "--model", cl_path, "--grid", "n=1,2,4,8",
                 "--x=0.5", "--lam=1.3", "--out", str(csv)]) == 0
    rows = [line.split(",") for line in csv.read_text().strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "2", "4", "8"]
    from levyruin import ruin_prob_erlang_n

    assert [float(r[1]) for r in rows] == [ruin_prob_erlang_n(cl, 0.5, 1.3, n)
                                          for n in (1, 2, 4, 8)]
    assert main(["eval", "ruin_prob_erlang_n", "--model", cl_path, "--x=0.5", "--lam=1.3",
                 "--n=8", "--reps", "10"]) == 2


def test_cli_sweep_single_point_matches_eval(model_files, capsys):
    bm_path, _ = model_files
    assert main(["sweep", "lt_occupation_inf", "--model", bm_path, "--grid", "x=0:0:1",
                 "--p=2", "--lam=2"]) == 0
    sweep_out = capsys.readouterr().out.strip().splitlines()
    assert main(["eval", "lt_occupation_inf", "--model", bm_path, "--x=0", "--p=2",
                 "--lam=2"]) == 0
    eval_out = capsys.readouterr().out.strip().splitlines()
    assert sweep_out[1].split(",")[1] == eval_out[-1].split()[-1]


def test_cli_sweep_empty_grid(model_files):
    bm_path, _ = model_files
    assert main(["sweep", "lt_occupation_inf", "--model", bm_path, "--p=2", "--lam=2"]) == 2


def test_cli_dist(model_files, capsys):
    bm_path, _ = model_files
    # graded grid: geometric head (integrable 1/sqrt(r) blow-up at 0) + linear tail
    import numpy as np

    rs = np.unique(np.concatenate([np.geomspace(1e-5, 1.0, 90), np.linspace(1.0, 55.0, 220)]))
    grid = ",".join(format(r, ".12g") for r in rs)
    assert main(["dist", "--model", bm_path, "--lam", "2", "--x", "0",
                 "--r-grid", grid]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("#")
    atom = float(lines[1].split("=")[1])
    assert atom == pytest.approx(0.5, rel=1e-12)
    norm = float(lines[-1].split("=")[1])
    assert norm == pytest.approx(1.0, abs=1e-2)
    # CSV parses and round-trips at 17 significant digits
    r0, d0 = lines[3].split(",")
    assert format(float(d0), ".17g") == d0


def test_cli_dist_empty_grid(model_files):
    bm_path, _ = model_files
    assert main(["dist", "--model", bm_path, "--lam", "2", "--x", "0",
                 "--r-grid", "-3:-1:4"]) == 2


@pytest.mark.parametrize("grid", ["x=0:1:abc", "x=a:1:3", "x=0:b:3", "x=0:1:2.5", "x=1,b"])
def test_cli_malformed_grid_is_usage_error(model_files, capsys, grid):
    # a grid that does not parse is a usage error (exit 2) with a one-line
    # message, for sweep's --grid and dist's --r-grid alike
    bm_path, _ = model_files
    assert main(["sweep", "lt_occupation_inf", "--model", bm_path, "--p=2", "--lam=2",
                 "--grid", grid]) == 2
    assert main(["dist", "--model", bm_path, "--lam", "2", "--x", "0",
                 "--r-grid", grid.split("=", 1)[1]]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("grid must be") == 2


def test_cli_dist_precondition(model_files, tmp_path):
    sink = tmp_path / "sink.json"
    sink.write_text(json.dumps({"kind": "brownian", "mu": -1.0, "sigma": 1.0}))
    assert main(["dist", "--model", str(sink), "--lam", "2", "--x", "0",
                 "--r-grid", "0.5:2:4"]) == 3


@pytest.mark.parametrize("flag", ["--x", "--lam"])
def test_cli_dist_non_finite_input(model_files, flag):
    bm_path, _ = model_files
    args = {"--x": "0", "--lam": "2", flag: "nan"}
    assert main(["dist", "--model", bm_path, "--lam", args["--lam"], "--x", args["--x"],
                 "--r-grid", "0.5:2:4"]) == 3
