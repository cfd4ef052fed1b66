"""Span tracing at the library's module boundaries, for the traced run only.

``patched(tracer)`` rebinds the public functions listed in ``TARGETS`` to timing
wrappers in every ``levyruin`` module namespace that holds them (a function
imported with ``from .models import phi`` is bound in several modules), and
restores every original binding on exit.  The untraced runs never enter it.

Each wrapper records a span: name, start, end, parent span and the benchmark
operation it belongs to.  Spans are aggregated as they close (calls, inclusive
time, self time = duration minus the part child spans cover) and the first
SPAN_CAPACITY are kept in memory and written to a trace file at the end.

Small leaf functions (``w``, ``w_prime``, ``z``, ``psi``) are not wrapped: the
quadrature inside ``script_w`` calls them hundreds of times a call, a span costs
more than they do, and their time counts as self time of their caller.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import sys
import time
from collections import defaultdict

from workloads import REGISTERED

# (module, attribute, span name).  parisian and occupation identities are added
# by ``targets()``, which wraps every public function those modules define.
TARGETS = (
    ("levyruin.models", "phi", "models.phi"),
    ("levyruin.models", "transition", "models.transition"),
    ("levyruin.scale", "scale_context", "scale.scale_context"),
    ("levyruin.scale", "z_tilde", "scale.z_tilde"),
    ("levyruin.scale", "script_w", "scale.script_w"),
    ("levyruin.scale", "w_tilde", "scale.w_tilde"),
    ("levyruin.quadrature", "gl_fixed", "quadrature.gl_fixed"),
    ("levyruin.quadrature", "gl_adaptive", "quadrature.gl_adaptive"),
    ("levyruin.registry", "evaluate_identity", "registry.evaluate_identity"),
    ("levyruin.registry", "mc_counterpart", "registry.mc_counterpart"),
    ("levyruin.mc.driver", "estimate", "mc.driver.estimate"),
    ("levyruin.mc.driver", "build_simulator", "mc.driver.build_simulator"),
    ("levyruin.mc.streams", "Stream", "mc.streams.Stream"),
)
IDENTITY_MODULES = ("levyruin.occupation", "levyruin.parisian")

_MC_LAYER = {"brownian": "mc.brownian", "cramer_lundberg": "mc.cramer_lundberg"}

# Registered identities implemented in levyruin.occupation; the rest live in
# levyruin.parisian.  Each is implemented by the function of its lower-cased name.
OCCUPATION_IDENTITIES = ("joint_lt_upcross", "lt_occupation_inf", "occupation_law")
MC_FUNCTIONALS = {
    "mc.cramer_lundberg": ("occupation_at_upcross", "occupation_poisson", "rho_sum_exp",
                           "rho_erlang", "kappa_fixed", "T0_minus", "T0_w_weight"),
    "mc.brownian": ("occupation_poisson", "rho_sum_exp", "rho_erlang", "kappa_fixed",
                    "T0_minus"),
}


def targets() -> list:
    out = list(TARGETS)
    for modname in IDENTITY_MODULES:
        mod = importlib.import_module(modname)
        short = modname.split(".", 1)[1]
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == modname):
                out.append((modname, attr, f"{short}.{attr}"))
    return out


SPAN_CAPACITY = 200_000  # spans kept for the trace file; later ones are only aggregated


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.total: list = []
        self.self_time: list = []
        self.counters = defaultdict(float)
        self.spans: list = []  # (span id, parent id, name id, op, start, end)
        self.dropped = 0
        self.op = -1
        self._stack: list = []  # [child time, span id] per open span
        self._next = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        sid = self._next
        self._next = sid + 1
        parent = stack[-1][1] if stack else -1
        frame = [0.0, sid]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.calls[nid] += 1
            self.total[nid] += dur
            self.self_time[nid] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if len(self.spans) < SPAN_CAPACITY:
                self.spans.append((sid, parent, nid, self.op, start, end))
            else:
                self.dropped += 1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        call = self.call

        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)

        return traced

    def stats(self, name: str) -> tuple:
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(f"# spans kept {len(self.spans)}, dropped {self.dropped}\n")
            fh.write("span,parent,name,op,start_s,end_s\n")
            for sid, parent, nid, op, start, end in self.spans:
                fh.write(f"{sid},{parent},{self.names[nid]},{op},{start:.9f},{end:.9f}\n")


def _cached_wrapper(tracer: Tracer, name: str, fn):
    # lru_cache'd function: a call that raises the original's miss count is a miss
    nid = tracer.name_id(name)
    info = fn.cache_info
    counters = tracer.counters

    def traced(*args, **kwargs):
        misses = info().misses
        start = time.perf_counter()
        out = tracer.call(nid, fn, args, kwargs)
        if info().misses != misses:
            counters[name + ".miss_s"] += time.perf_counter() - start
            counters[name + ".misses"] += 1
        return out

    return traced


def _gl_fixed_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    counters = tracer.counters

    def traced(f, lo, hi, n):
        counters["quadrature.nodes"] += n
        return tracer.call(nid, fn, (f, lo, hi, n), {})

    return traced


def _simulator_wrapper(tracer: Tracer, name: str, fn):
    # build_simulator returns a per-replication closure: wrap it, one span a
    # replication, and tally escapes and half-step companion replications
    nid = tracer.name_id(name)
    counters = tracer.counters

    def traced(model, pf, config, dt=None):
        sim = tracer.call(nid, fn, (model, pf, config), {"dt": dt})
        layer = _MC_LAYER[model.kind]
        rep_nid = tracer.name_id(f"{layer}.{pf.name}")
        companion = dt is not None

        def rep(stream):
            value, escaped = tracer.call(rep_nid, sim, (stream,), {})
            counters[layer + ".reps"] += 1
            counters[layer + ".escapes"] += escaped
            if companion:
                counters["mc.driver.companion_reps"] += 1
            return value, escaped

        return rep

    return traced


_SPECIAL = {
    "scale.scale_context": _cached_wrapper,
    "quadrature.gl_fixed": _gl_fixed_wrapper,
    "mc.driver.build_simulator": _simulator_wrapper,
}


def _library_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "levyruin" or n.startswith("levyruin."))]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Rebind every target in every levyruin namespace holding it; restore on exit."""
    rebound = []  # (module, attribute, original)
    try:
        for modname, attr, name in targets():
            original = getattr(importlib.import_module(modname), attr)
            make = _SPECIAL.get(name)
            wrapper = make(tracer, name, original) if make else tracer.wrap(name, original)
            for mod in _library_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        rebound.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(rebound):
            setattr(mod, key, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_before, cache_after, density_points: int) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    ``cache_before`` and ``cache_after``: the original scale_context's
    cache_info() around the run.
    """

    def per_call(name: str, self_time: bool = False) -> float:
        calls, total, own = tracer.stats(name)
        return 1e6 * _ratio(own if self_time else total, calls)

    def calls(name: str) -> int:
        return tracer.stats(name)[0]

    c = tracer.counters
    out = {}
    for name in ("models.phi", "models.transition"):
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".us_per_call"] = (per_call(name), "us")
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    out["scale.scale_context.calls"] = (calls("scale.scale_context"), "count")
    out["scale.scale_context.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    out["scale.scale_context.miss_us"] = (
        1e6 * _ratio(c["scale.scale_context.miss_s"], c["scale.scale_context.misses"]), "us")
    out["scale.scale_context.entries"] = (cache_after.currsize, "count")
    for name in ("scale.z_tilde", "scale.script_w"):
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".us_per_call"] = (per_call(name), "us")
    out["quadrature.gl_fixed.calls"] = (calls("quadrature.gl_fixed"), "count")
    out["quadrature.gl_adaptive.calls"] = (calls("quadrature.gl_adaptive"), "count")
    out["quadrature.nodes"] = (int(c["quadrature.nodes"]), "count")
    out["occupation.density.us_per_point"] = (per_call("occupation.density"), "us")
    out["occupation.transition_per_point"] = (
        _ratio(calls("models.transition"), density_points), "count/point")
    out["occupation.nodes_per_point"] = (_ratio(c["quadrature.nodes"], density_points),
                                         "count/point")
    for ident in REGISTERED:
        module = "occupation" if ident in OCCUPATION_IDENTITIES else "parisian"
        out[f"{module}.{ident}.us_per_call"] = (
            per_call(f"{module}.{ident.lower()}", self_time=True), "us")
    out["registry.dispatch_us"] = (per_call("registry.evaluate_identity", self_time=True), "us")
    out["mc.streams.constructions"] = (calls("mc.streams.Stream"), "count")
    out["mc.streams.construct_us"] = (per_call("mc.streams.Stream"), "us")
    reps = 0.0
    for layer, functionals in MC_FUNCTIONALS.items():
        for fn in functionals:
            out[f"{layer}.{fn}.us_per_rep"] = (per_call(f"{layer}.{fn}"), "us")
        out[layer + ".escape_share"] = (_ratio(c[layer + ".escapes"], c[layer + ".reps"]),
                                        "ratio")
        reps += c[layer + ".reps"]
    n_est, t_est, own_est = tracer.stats("mc.driver.estimate")
    out["mc.driver.campaigns"] = (n_est, "count")
    out["mc.driver.overhead_share"] = (_ratio(own_est, t_est), "ratio")
    out["mc.driver.companion_rep_share"] = (_ratio(c["mc.driver.companion_reps"], reps), "ratio")
    return out
