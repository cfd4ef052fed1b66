"""levyruin benchmark: the sweep, validate and dist workloads.

    python3 bench/run.py --workload {sweep,validate,dist} --seed N --seconds 25 --trace {0,1}

Run from the repository root.  Every workload runs in fresh interpreters started
by this script, single process, with the library imported from ``src/``.

* ``--trace 0`` times the workload untraced and reports the end-to-end metrics.
  ``setup_s`` is the median over five fresh interpreters (four that only set up,
  plus the timed one).
* ``--trace 1`` runs the workload untraced and then, in another interpreter,
  traced at the library's module boundaries, half the time each, and reports
  the per-layer metrics; the trace is written to ``.bench_out/``.

Times are calibrated for host speed (see hostspeed.py); the uncalibrated values
and the host factor are printed too.  Each metric is printed on its own line
with its unit.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 when the run
completed, whether or not every check passed; 2, with no result printed, when
the checkout has no ``src/levyruin``; 1 when an interpreter fails or the
command runs out of time.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()  # setup_s counts from here: before levyruin is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from lib import ROOT, SRC, build_model, import_levyruin  # noqa: E402

WORKLOADS = ("sweep", "validate", "dist")
END_TO_END = ("setup_s", "throughput", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")
PER_LAYER_EXTRA = ("trace.overhead_share", "known_defect.failed")  # besides spans.layer_metrics
# Highest whole percentile with at least ten operations beyond it at each
# workload's operation count on the seed commit in 25 s: sweep 2.6e5-3.8e5
# evaluations, validate 8-11 passes of 29 requests (232-319), dist 5 passes of
# 192 density points (960).
TAIL_PERCENTILE = {"sweep": 99, "validate": 95, "dist": 98}
WORK_UNIT = {"sweep": "evaluations", "validate": "replications", "dist": "density points"}
SETUP_SAMPLES = 5
SETUP_KERNEL_SAMPLES = 3  # host-speed samples before and after set-up, for setup_s
DEADLINE_S = 175.0  # the whole command, all interpreters included
INFORMATIONAL = {"fixed_delay_approx"}  # validation verdict informational by design
OUT_DIR = ROOT / ".bench_out"
MAX_ERRORS = 5


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    n = len(sorted_values)
    pos = (n - 1) * pct / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Tally:
    """Operation count, failures and per-operation latencies of one timed run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.latencies = array("d")
        self.errors: list = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(what)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def prepare_sweep(seed: int) -> dict:
    from levyruin import registry

    models = {key: build_model(key) for key in workloads.MODELS}
    registry.evaluate_identity("ruin_prob_erlang2", models["bm_a"], {"x": 0.5, "lam": 1.3})
    return {"models": models, "plan": workloads.sweep_plan(seed),
            "reference": checks.load_reference()}


def run_sweep(state: dict, seconds: float, tracer, speed) -> Tally:
    from levyruin import registry

    evaluate = registry.evaluate_identity  # looked up here so a traced run sees the wrapper
    models, reference = state["models"], state["reference"]
    tally = Tally()
    lat = tally.latencies
    perf = time.perf_counter
    deadline = perf() + seconds
    speed.start(lat)
    for sweep in state["plan"]:
        fam = sweep.family
        model = models[fam.model]
        ref = reference[fam.key]
        for k, params in sweep.points():
            if tracer is not None:
                tracer.op = tally.attempted
            tally.attempted += 1
            start = perf()
            try:
                value, _ = evaluate(fam.identity, model, params)
            except Exception as exc:  # a failed operation is a measurement, not a crash
                lat.append(perf() - start)
                tally.fail(f"{fam.key}[{k}] raised {type(exc).__name__}: {exc}")
                continue
            lat.append(perf() - start)
            value = float(value)
            if not checks.in_range(fam.identity, value):
                tally.fail(f"{fam.key}[{k}] out of range: {value!r}")
            elif ref[k] is not None and not checks.matches(value, ref[k]):
                tally.fail(f"{fam.key}[{k}] = {value!r}, reference {ref[k]!r}")
        speed.maybe_sample()
        if perf() >= deadline:
            break
    speed.stop()
    tally.work = tally.attempted
    return tally


def probe_sweep(state: dict) -> dict:
    """Evaluate the known-defect region once, with range checks only."""
    from levyruin import registry

    models = state["models"]
    attempted, kinds = 0, {}
    for sweep in workloads.defect_plan():
        fam = sweep.family
        for _, params in sweep.points():
            attempted += 1
            try:
                value, _ = registry.evaluate_identity(fam.identity, models[fam.model], params)
                kind = None if checks.in_range(fam.identity, float(value)) else "out of range"
            except Exception as exc:  # the region is known to raise; count by type
                kind = type(exc).__name__
            if kind:
                kinds[kind] = kinds.get(kind, 0) + 1
    return {"attempted": attempted, "failed": sum(kinds.values()), "by_kind": kinds}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _mc_config(model, reps: int, seed: int):
    from levyruin.mc import EscapeLevel, McConfig, default_escape_level

    # the CLI's escape-level rule (levyruin.cli._mc_config)
    target = max(min(1e-6, 0.05 / math.sqrt(reps)), 1e-12)
    return McConfig(replications=reps, seed=seed,
                    horizon=EscapeLevel(default_escape_level(model, target)))


def prepare_validate(seed: int) -> dict:
    from levyruin import registry

    models = {key: build_model(key) for key in ("cl_a", "bm_a")}
    configs = {req.mc_seed: _mc_config(models[req.model], req.reps, req.mc_seed)
               for req in workloads.validate_requests()}
    warm = workloads.validate_requests()[0]
    small = _mc_config(models[warm.model], 100, warm.mc_seed)
    registry.evaluate_identity(warm.identity, models[warm.model], warm.params, mc_config=small)
    registry.mc_counterpart(warm.identity, models[warm.model], warm.params, small)
    return {"models": models, "configs": configs, "seed": seed}


def run_validate(state: dict, seconds: float, tracer, speed) -> Tally:
    from levyruin import registry

    evaluate, counterpart = registry.evaluate_identity, registry.mc_counterpart
    models, configs = state["models"], state["configs"]
    tally = Tally()
    perf = time.perf_counter
    deadline = perf() + seconds
    speed.start(tally.latencies)
    index = 0
    while True:  # whole passes, so every run holds the same request mix
        for req in workloads.validate_pass(state["seed"], index):
            model, cfg = models[req.model], configs[req.mc_seed]
            label = f"{req.model}:{req.identity}{req.params.get('n', '')}"
            if tracer is not None:
                tracer.op = tally.attempted
            tally.attempted += 1
            tally.work += req.work
            start = perf()
            try:
                analytic, _ = evaluate(req.identity, model, req.params, mc_config=cfg)
                est, _ = counterpart(req.identity, model, req.params, cfg)
            except Exception as exc:  # a failed operation is a measurement, not a crash
                tally.latencies.append(perf() - start)
                tally.fail(f"{label} raised {type(exc).__name__}: {exc}")
                continue
            tally.latencies.append(perf() - start)
            speed.maybe_sample()
            gap = abs(analytic - est.value)
            tol = 3.0 * est.std_error + est.truncation_bound
            if not checks.in_range(req.identity, float(analytic)) or not math.isfinite(gap):
                tally.fail(f"{label} analytic {analytic!r}, mc {est.value!r}")
            elif req.identity not in INFORMATIONAL and gap > tol:
                tally.fail(f"{label} verdict fail: |{analytic!r} - {est.value!r}| > {tol!r}")
        index += 1
        if perf() >= deadline:
            speed.stop()
            return tally


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def prepare_dist(seed: int) -> dict:
    from levyruin import occupation

    models = {key: build_model(key) for key in ("bm_a", "bm_b", "cl_a")}
    occupation.occupation_law(models["bm_a"], 0.0, 2.0).density(1.0)
    return {"models": models, "seed": seed, "grids": []}


def run_dist(state: dict, seconds: float, tracer, speed) -> Tally:
    from levyruin import occupation

    models = state["models"]
    tally = Tally()
    perf = time.perf_counter
    deadline = perf() + seconds
    speed.start(tally.latencies)
    index = 0
    while True:  # whole passes, so every run holds the same grid mix
        for grid in workloads.dist_pass(state["seed"], index):
            law = occupation.occupation_law(models[grid.model], grid.x, grid.lam)
            density = law.density if tracer is None else tracer.wrap("occupation.density",
                                                                     law.density)
            rs, ws = workloads.u_grid(law.suggested_r_max(workloads.DIST_TAIL_EPS))
            values = []
            for r in rs:
                if tracer is not None:
                    tracer.op = tally.attempted
                tally.attempted += 1
                start = perf()
                try:
                    value = float(density(float(r)))
                except Exception as exc:  # a failed operation is a measurement, not a crash
                    tally.latencies.append(perf() - start)
                    tally.fail(f"{grid} r={r!r} raised {type(exc).__name__}: {exc}")
                    values.append(math.nan)
                    continue
                tally.latencies.append(perf() - start)
                speed.maybe_sample()
                values.append(value)
                if not checks.in_range("occupation_law", value):
                    tally.fail(f"{grid} r={r!r} density {value!r}")
            state["grids"].append((grid, law.atom_at_zero, rs, ws, values))
        index += 1
        if perf() >= deadline:
            speed.stop()
            tally.work = tally.attempted
            return tally


def check_dist(state: dict, tally: Tally) -> None:
    """Atom plus the grid's Laplace transform must match lt_occupation_inf.

    A grid that fails counts each of its points as failed (points that already
    failed on their own are not counted twice)."""
    import numpy as np
    from levyruin.occupation import lt_occupation_inf

    for grid, atom, rs, ws, values in state["grids"]:
        dens = np.array(values)
        if not np.all(np.isfinite(dens)):
            continue
        model = state["models"][grid.model]
        errs = [abs(atom + float(np.dot(ws, np.exp(-p * rs) * dens))
                    - lt_occupation_inf(model, grid.x, p, grid.lam)) for p in checks.DIST_LT_P]
        if max(errs) > checks.DIST_LT_TOL:
            bad = int(np.sum(dens >= 0.0))
            for _ in range(bad):
                tally.fail(f"{grid} Laplace check error {max(errs):.2e}")


PREPARE = {"sweep": prepare_sweep, "validate": prepare_validate, "dist": prepare_dist}
RUN = {"sweep": run_sweep, "validate": run_validate, "dist": run_dist}


# ---------------------------------------------------------------------------
# one interpreter: set up, and optionally run (traced or not)
# ---------------------------------------------------------------------------


def child(phase: str, workload: str, seed: int, seconds: float) -> dict:
    # set-up is bracketed by kernel samples, whose time it excludes
    speed = HostSpeed()
    for _ in range(SETUP_KERNEL_SAMPLES):
        speed.sample()
    import_levyruin()
    warnings.simplefilter("ignore")  # truncation-bound advisories of short campaigns
    state = PREPARE[workload](seed)
    setup_raw = time.perf_counter() - _T_START - speed.spent
    for _ in range(SETUP_KERNEL_SAMPLES):
        speed.sample()
    out = {"setup_raw_s": setup_raw, "setup_s": setup_raw / speed.factor()}
    if phase == "setup":
        return out
    tracer = None
    patch = contextlib.nullcontext()
    if phase == "traced":
        import spans
        from levyruin import scale

        tracer = spans.Tracer()
        patch = spans.patched(tracer)
        before = scale.scale_context.cache_info()
    with patch:
        tally = RUN[workload](state, seconds, tracer, speed)
    factor = speed.factor()
    if tracer is not None:
        points = tally.attempted if workload == "dist" else 0
        layers = spans.layer_metrics(tracer, before, scale.scale_context.cache_info(), points)
        out["layers"] = {name: (value / factor if unit == "us" else value, unit)
                         for name, (value, unit) in layers.items()}
        path = OUT_DIR / f"trace-{workload}-seed{seed}.csv.gz"
        tracer.write(path)
        out["trace_file"] = str(path.relative_to(ROOT))
    if workload == "dist":
        check_dist(state, tally)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "sweep" and phase == "run":
        out["probe"] = probe_sweep(state)
    lat = sorted(tally.latencies)  # calibrated by HostSpeed
    out.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        work=tally.work,
        elapsed_s=speed.raw,
        host_factor=factor,
        raw={"throughput": tally.work / speed.raw},
        throughput=tally.work / speed.calibrated,
        latency_p50_ms=1e3 * percentile(lat, 50.0),
        latency_tail_ms=1e3 * percentile(lat, TAIL_PERCENTILE[workload]),
    )
    return out


def spawn(phase: str, args, deadline: float, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for the {phase} interpreter")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} interpreter exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return percentile(sorted(values), 50.0)



def end_to_end(args, deadline: float) -> tuple:
    setups = [spawn("setup", args, deadline, args.seconds) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn("run", args, deadline, args.seconds)
    setups.append(run)
    run["raw"]["setup_s"] = _median(s["setup_raw_s"] for s in setups)
    values = {"setup_s": _median(s["setup_s"] for s in setups), **run}
    units = {"setup_s": "s", "throughput": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
    return {name: (values[name], units[name]) for name in END_TO_END}, [run]


def per_layer(args, deadline: float) -> tuple:
    # half the time each, so a traced command takes as long as an untraced one
    run = spawn("run", args, deadline, args.seconds / 2)
    traced = spawn("traced", args, deadline, args.seconds / 2)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_share"] = (1.0 - traced["throughput"] / run["throughput"], "ratio")
    metrics["known_defect.failed"] = (run.get("probe", {}).get("failed", 0), "count")
    return metrics, [run, traced]


def report(args, metrics: dict, runs: list) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    probe = runs[0].get("probe", {"attempted": 0, "failed": 0, "by_kind": {}})
    run = runs[0]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    share = (run["failed"] + probe["failed"]) / (run["attempted"] + probe["attempted"])
    print(f"{'failed_share':42s} {share:.6g} ratio  ({run['failed']} of {run['attempted']} "
          f"timed operations; known-defect probe {probe['failed']} of {probe['attempted']} "
          f"{probe['by_kind']})")
    print(f"{'operations':42s} {run['attempted']} count  ({WORK_UNIT[args.workload]}: "
          f"{run['work']}; latency_tail_ms is p{TAIL_PERCENTILE[args.workload]})")
    raw = ", ".join(f"{name} {value:.6g}" for name, value in run["raw"].items())
    print(f"{'uncalibrated':42s} {raw}; factor {run['host_factor']:.4f}")
    for r in runs:
        for err in r["errors"]:
            print(f"FAILED {err}")
        if "trace_file" in r:
            print(f"trace written to {r['trace_file']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "run", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.phase:
        print(json.dumps(child(args.phase, args.workload, args.seed, args.seconds)))
        return 0
    if not (SRC / "levyruin" / "__init__.py").is_file():
        print(f"error: no levyruin sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, runs = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, metrics, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
