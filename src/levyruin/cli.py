"""Batch command line: evaluate identities, run validation campaigns, sweep grids,
emit occupation-law density grids.

Exit codes: 0 success / validation pass, 1 validation fail, 2 usage error,
3 domain or precondition error, 4 numerical failure (a tripped numeric guard or
an overflow).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

from .errors import DomainError, NumericalError, UnsupportedFunctional, UsageError
from .mc import EscapeLevel, McConfig, default_escape_level
from .models import model_from_dict
from .occupation import occupation_law
from .registry import (
    IDENTITIES,
    evaluate_identity,
    identity_names,
    mc_counterpart,
    validatable_names,
)

_PARAM_RE = re.compile(r"^--([A-Za-z_][A-Za-z0-9_]*)=(.+)$")


def _load_model(path: str):
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read model file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"model file is not valid JSON: {exc}")
    try:
        return model_from_dict(spec)
    except DomainError as exc:
        raise UsageError(f"bad model file: {exc}")


def _parse_kv(pairs):
    out = {}
    for item in pairs:
        m = _PARAM_RE.match(item)
        if not m:
            raise UsageError(f"parameters must be given as --key=value, got {item!r}")
        key, raw = m.groups()
        try:
            out[key] = float(raw)
        except ValueError:
            raise UsageError(f"parameter {key} has a non-numeric value {raw!r}")
    return out


def _require_identity(name: str):
    if name not in IDENTITIES:
        raise UsageError(f"unknown identity {name!r}; registered identities:\n  "
                         + "\n  ".join(identity_names()))


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _mc_config(model, args) -> McConfig:
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.b_esc is not None:
        horizon = EscapeLevel(args.b_esc)
    else:
        target = max(min(1e-6, 0.05 / math.sqrt(args.reps)), 1e-12)
        horizon = EscapeLevel(default_escape_level(model, target))
    return McConfig(
        replications=args.reps,
        seed=args.seed,
        horizon=horizon,
        antithetic=args.antithetic,
    )


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    _require_identity(args.identity)
    params = _parse_kv(args.params)
    value, extras = evaluate_identity(args.identity, model, params)
    print(f"identity  {args.identity}")
    print(f"model     {model.describe()}")
    for key in sorted(params):
        print(f"param     {key} = {_fmt(params[key])}")
    for key, val in extras.items():
        print(f"extra     {key} = {val}")
    print(f"value     {_fmt(value)}")
    return 0


def cmd_validate(args) -> int:
    model = _load_model(args.model)
    _require_identity(args.identity)
    ident = IDENTITIES[args.identity]
    if ident.mc_functional is None:
        raise UsageError(f"identity {args.identity!r} has no Monte Carlo counterpart; "
                         "validatable identities:\n  " + "\n  ".join(validatable_names()))
    params = _parse_kv(args.params)
    config = _mc_config(model, args)
    analytic, _ = evaluate_identity(args.identity, model, params)
    try:
        mc, fn = mc_counterpart(args.identity, model, params, config, workers=args.workers)
    except UnsupportedFunctional as exc:
        raise UsageError(f"Monte Carlo counterpart unavailable for this model: {exc}")

    z_score = (analytic - mc.value) / mc.std_error if mc.std_error > 0.0 else 0.0
    tol = 3.0 * mc.std_error + mc.truncation_bound
    if ident.informational or config.replications < 100:
        verdict = "informational"
    elif abs(analytic - mc.value) <= tol:
        verdict = "pass"
    else:
        verdict = "fail"
    report = {
        "identity": args.identity,
        "params": params,
        "analytic": analytic,
        "mc": {
            "functional": fn.name,
            "functional_params": dict(fn.params),
            "value": mc.value,
            "std_error": mc.std_error,
            "replications": mc.replications,
            "truncation_bound": mc.truncation_bound,
        },
        "z_score": z_score,
        "verdict": verdict,
        "seed": config.seed,
    }
    rows = [
        ("identity", args.identity),
        ("model", model.describe()),
        ("analytic", _fmt(analytic)),
        ("mc value", _fmt(mc.value)),
        ("std error", _fmt(mc.std_error)),
        ("trunc bound", _fmt(mc.truncation_bound)),
        ("replications", str(mc.replications)),
        ("z score", f"{z_score:+.3f}"),
        ("verdict", verdict),
    ]
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k:<{width}}  {v}")
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0 if verdict in ("pass", "informational") else 1


_GRID_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(.+)$")


def _parse_grid(spec: str):
    m = _GRID_RE.match(spec)
    if not m:
        raise UsageError(f"grid spec must be key=lo:hi:count or key=v1,v2,..., got {spec!r}")
    key, body = m.groups()
    if ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise UsageError(f"range grid must be lo:hi:count, got {body!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(
                f"range grid must be numbers lo:hi and an integer count, got {body!r}")
        if count < 1:
            raise UsageError("grid count must be >= 1")
        if count == 1:
            values = [lo]
        else:
            step = (hi - lo) / (count - 1)
            values = [lo + i * step for i in range(count)]
    else:
        try:
            values = [float(v) for v in body.split(",") if v != ""]
        except ValueError:
            raise UsageError(f"list grid must be numbers v1,v2,..., got {body!r}")
    if not values:
        raise UsageError("empty grid")
    return key, values


def cmd_sweep(args) -> int:
    model = _load_model(args.model)
    _require_identity(args.identity)
    fixed = _parse_kv(args.params)
    if not args.grid:
        raise UsageError("sweep needs at least one --grid key=... specification")
    grids = dict(_parse_grid(g) for g in args.grid)
    overlap = set(grids) & set(fixed)
    if overlap:
        raise UsageError(f"parameters both fixed and swept: {sorted(overlap)}")
    keys = sorted(grids)
    lines = [",".join(keys + ["value"])]
    for combo in itertools.product(*(grids[k] for k in keys)):
        params = dict(fixed)
        params.update(dict(zip(keys, combo)))
        value, _ = evaluate_identity(args.identity, model, params)
        lines.append(",".join(_fmt(v) for v in combo) + "," + _fmt(value))
    _emit(lines, args.out)
    return 0


def cmd_dist(args) -> int:
    model = _load_model(args.model)
    law = occupation_law(model, args.x, args.lam)
    key, rs = _parse_grid("r=" + args.r_grid)
    rs = [r for r in rs if r > 0.0]
    if not rs:
        raise UsageError("empty r grid")
    lines = [
        f"# occupation_law model={model.describe()} x={_fmt(args.x)} lam={_fmt(args.lam)}",
        f"# atom_at_zero={_fmt(law.atom_at_zero)}",
        "r,density",
    ]
    dens = [law.density(r) for r in rs]
    for r, d in zip(rs, dens):
        lines.append(f"{_fmt(r)},{_fmt(d)}")
    total = law.atom_at_zero
    for i in range(1, len(rs)):
        total += 0.5 * (dens[i] + dens[i - 1]) * (rs[i] - rs[i - 1])
    lines.append(f"# normalization_atom_plus_trapezoid={_fmt(total)}")
    _emit(lines, args.out)
    return 0


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="levyruin",
        description="Closed-form Parisian ruin / Poissonian occupation identities "
        "with Monte Carlo validation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mc=True):
        p.add_argument("--model", required=True, help="model JSON file")
        if with_mc:
            p.add_argument("--seed", type=int, default=20240101)
            p.add_argument("--reps", type=int, default=200_000)
            p.add_argument("--workers", type=int, default=1)
            p.add_argument("--b-esc", dest="b_esc", type=float, default=None,
                           help="escape-level horizon (default: from the target bias bound)")
            p.add_argument("--antithetic", action="store_true")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_eval = sub.add_parser("eval", help="evaluate one identity", allow_abbrev=False)
    p_eval.add_argument("identity")
    common(p_eval, with_mc=False)
    p_eval.add_argument("params", nargs="*", help="--key=value identity parameters")
    p_eval.set_defaults(func=cmd_eval)

    p_val = sub.add_parser("validate", help="analytic value vs Monte Carlo campaign", allow_abbrev=False)
    p_val.add_argument("identity")
    common(p_val)
    p_val.add_argument("params", nargs="*", help="--key=value identity parameters")
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="evaluate over a parameter grid, CSV out", allow_abbrev=False)
    p_sweep.add_argument("identity")
    common(p_sweep, with_mc=False)
    p_sweep.add_argument("--grid", action="append", default=[],
                         help="key=lo:hi:count or key=v1,v2,... (repeatable)")
    p_sweep.add_argument("params", nargs="*", help="--key=value fixed parameters")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dist = sub.add_parser("dist", help="occupation-law density grid, CSV out", allow_abbrev=False)
    common(p_dist, with_mc=False)
    p_dist.add_argument("--lam", type=float, required=True)
    p_dist.add_argument("--x", type=float, required=True)
    p_dist.add_argument("--r-grid", dest="r_grid", required=True, help="lo:hi:count")
    p_dist.set_defaults(func=cmd_dist)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # identity parameters arrive as --key=value, unknown to argparse
        args, unknown = parser.parse_known_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    bad = [u for u in unknown if not _PARAM_RE.match(u)]
    if bad:
        print(f"error: unrecognized arguments: {bad}", file=sys.stderr)
        return 2
    if hasattr(args, "params"):
        args.params = list(args.params) + unknown
    elif unknown:
        print(f"error: unexpected parameters: {unknown}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
