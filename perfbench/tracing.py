"""Per-layer tracing of a benchmark run, from the benchmark's own files.

``install`` replaces public functions and methods of proxsplit with wrappers
at every module that binds them (``as_vector`` in core, catalog, solvers,
sets and problems; ``solve_monotone`` in scalar and catalog; and so on).
Each wrapper opens a frame on a stack, so a frame's self time is its
duration minus that of the frames it encloses.  Coarse layers also keep a
span record (id, parent, name, start, end) in memory; hot leaves such as
``as_vector`` keep only totals.  ``Patches.restore`` puts every original back.

The traced run builds once under the wrappers, then alternates untraced and
traced rounds, and reports every per-layer metric for one setup plus one
round, in nominal milliseconds.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import harness
import proxsplit
from proxsplit import catalog, cli, core, problems, scalar, sets, solvers

MODULES = (proxsplit, core, scalar, catalog, sets, solvers, problems, cli)
KINDS = tuple(catalog.SCALAR_KINDS)
EVAL_SPANS = ("catalog.eval", "core.smooth_eval", "sets.distance")
SOLVER_FUNCTIONS = (
    "pocs", "forward_backward", "forward_backward_const", "fista", "douglas_rachford", "dykstra_like",
    "dual_forward_backward", "admm", "ppxa", "parallel_dykstra", "sdmm",
)
MAX_SPANS = 200_000

# counts (and times) that must be nonzero on a workload; a zero means a
# wrapper missed the function it was meant to catch
EXPECTED_NONZERO = {
    "lasso": (
        "core.as_vector.calls", "core.linear.calls", "core.operator_norm.steps", "core.grad.ms",
        "catalog.prox.calls", "catalog.eval.calls", "catalog.prox.interval_support.ns_per_coord",
        "solvers.iterations", "solvers.objective.ms", "problems.build.ms", "problems.build.alloc_mb",
    ),
    "tv1d": (
        "core.as_vector.calls", "core.linear.calls", "core.operator_norm.steps", "catalog.prox.calls",
        "catalog.eval.calls", "catalog.prox.interval_support.ns_per_coord", "solvers.iterations",
        "solvers.objective.ms", "problems.build.ms", "problems.build.alloc_mb",
    ),
    "prox_catalog": (
        "core.as_vector.calls", "core.linear.calls", "catalog.prox.calls", "scalar.solve_monotone.calls",
        "scalar.solve_monotone.g_evals", "scalar.lambert_w_exp.calls",
        *(f"catalog.prox.{kind}.ns_per_coord" for kind in KINDS),
    ),
    "cli_table": (
        "core.as_vector.calls", "core.linear.calls", "core.operator_norm.steps", "catalog.prox.calls",
        "catalog.eval.calls", "sets.project.calls", "scalar.solve_monotone.calls", "solvers.iterations",
        "problems.build.ms", "cli.parse.ms", "cli.write_trace.ms", "cli.trace.bytes", "cli.read_trace.ms",
    ),
}


class Recorder:
    """Frame stack, per-name totals, counters and span records."""

    def __init__(self):
        self.stack = []  # open frames: [name, span id or 0, start ns, child ns]
        self.open = defaultdict(int)  # name -> frames of that name on the stack
        self.totals = defaultdict(lambda: [0, 0, 0])  # name -> [calls, inclusive ns, self ns]
        self.counters = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self._next_id = 1
        self.separable_kind = {}  # id(ProxFn) -> (kind name, dim, the ProxFn, kept alive)
        self.active = True
        self.measure_alloc = False

    def call(self, name: str, record: bool, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span_id = 0
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, span_id, time.perf_counter_ns(), 0]
        self.stack.append(frame)
        self.open[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.open[name] -= 1
            dur = end - frame[2]
            tot = self.totals[name]
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[3]
            parent = self.stack[-1] if self.stack else None
            if parent is not None:
                parent[3] += dur
            if name in EVAL_SPANS and self.open["solvers.solve"] and not any(self.open[e] for e in EVAL_SPANS):
                self.counters["solvers.objective.ns"] += dur
            if record:
                if len(self.spans) < MAX_SPANS:
                    parent_id = next((f[1] for f in reversed(self.stack) if f[1]), 0)
                    self.spans.append((span_id, parent_id, name, frame[2], end))
                else:
                    self.dropped += 1

    def parent_name(self):
        return self.stack[-1][0] if self.stack else None

    def snapshot(self) -> dict:
        """Every additive total, so that two snapshots can be differenced."""
        snap = {f"{name}.{field}": tot[i] for name, tot in self.totals.items() for i, field in enumerate(("calls", "ns", "self_ns"))}
        snap.update(self.counters)
        return snap

    def dump(self, path_stem: str) -> None:
        with open(path_stem + ".spans.csv", "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)
        with open(path_stem + ".counts.json", "w") as fh:
            json.dump({"totals": {k: list(v) for k, v in self.totals.items()}, "counters": dict(self.counters), "dropped_spans": self.dropped}, fh, indent=1)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _wrap(rec, name, fn, record=True, after=None):
    def wrapper(*args, **kwargs):
        out = rec.call(name, record, fn, args, kwargs)
        if after is not None and rec.active:
            after(out, args, kwargs)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class Patches:
    """Every replaced attribute, so that it can be put back."""

    def __init__(self):
        self.saved = []

    def function(self, original, wrapper) -> int:
        """Rebind ``original`` to ``wrapper`` in every module that binds it."""
        hits = 0
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no module binds {original!r}")
        return hits

    def method(self, cls, attr, wrapper_factory) -> None:
        original = cls.__dict__[attr]
        self.saved.append((cls, attr, original))
        if isinstance(original, staticmethod):
            setattr(cls, attr, staticmethod(wrapper_factory(original.__func__)))
        else:
            setattr(cls, attr, wrapper_factory(original))

    def restore(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def install(rec: Recorder) -> Patches:
    patches = Patches()
    fn, meth = patches.function, patches.method

    # core
    fn(core.as_vector, _wrap(rec, "core.as_vector", core.as_vector, record=False))
    fn(core.operator_norm, _wrap(rec, "core.operator_norm", core.operator_norm))

    def linear(method):
        def wrapper(self, x):
            if rec.active and rec.parent_name() == "core.operator_norm" and method.__name__ == "apply":
                rec.counters["core.operator_norm.steps"] += 1
            return rec.call("core.linear", True, method, (self, x), {})

        return wrapper

    meth(core.LinearMap, "apply", linear)
    meth(core.LinearMap, "adjoint", linear)
    meth(core.SmoothFn, "grad", lambda m: _wrap(rec, "core.grad", m))
    meth(core.SmoothFn, "eval", lambda m: _wrap(rec, "core.smooth_eval", m))

    # scalar
    def solve_monotone(original):
        def wrapper(g, *args, **kwargs):
            if not rec.active:
                return original(g, *args, **kwargs)

            def counted(p):
                rec.counters["scalar.solve_monotone.g_evals"] += 1
                return g(p)

            return rec.call("scalar.solve_monotone", False, original, (counted, *args), kwargs)

        return wrapper

    fn(scalar.solve_monotone, solve_monotone(scalar.solve_monotone))
    fn(scalar.lambert_w_exp, _wrap(rec, "scalar.lambert_w_exp", scalar.lambert_w_exp, record=False))

    # catalog
    kind_names = {cls: name for name, cls in catalog.SCALAR_KINDS.items()}

    def note_separable(out, args, kwargs):
        kinds = args[0]
        classes = {type(kinds)} if isinstance(kinds, catalog.ScalarKind) else {type(k) for k in kinds}
        if len(classes) == 1:
            rec.separable_kind[id(out)] = (kind_names[classes.pop()], out.dim, out)

    fn(catalog.separable, _wrap(rec, "catalog.separable", catalog.separable, after=note_separable))

    def prox(method):
        def wrapper(self, gamma, x):
            t0 = time.perf_counter_ns()
            out = rec.call("catalog.prox", True, method, (self, gamma, x), {})
            kind = rec.separable_kind.get(id(self)) if rec.active else None
            if kind is not None:
                rec.counters[f"kind.{kind[0]}.ns"] += time.perf_counter_ns() - t0
                rec.counters[f"kind.{kind[0]}.coords"] += kind[1]
            return out

        return wrapper

    meth(core.ProxFn, "prox", prox)
    meth(core.ProxFn, "eval", lambda m: _wrap(rec, "catalog.eval", m))

    # sets
    for cls in vars(sets).values():
        if isinstance(cls, type) and issubclass(cls, sets.ConvexSet) and "project" in cls.__dict__ and cls is not sets.ConvexSet:
            meth(cls, "project", lambda m: _wrap(rec, "sets.project", m))
    meth(sets.ConvexSet, "distance", lambda m: _wrap(rec, "sets.distance", m))

    # solvers
    def count_iterations(out, args, kwargs):
        rec.counters["solvers.iterations"] += out.iterations

    for name in SOLVER_FUNCTIONS:
        original = getattr(solvers, name)
        fn(original, _wrap(rec, "solvers.solve", original, after=count_iterations))

    # problems
    def build(original):
        inner = _wrap(rec, "problems.build", original)

        def wrapper(*args, **kwargs):
            if not rec.measure_alloc:
                return inner(*args, **kwargs)
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                rec.counters["problems.build.alloc_bytes"] += tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return wrapper

    for name in dir(problems):
        if name.startswith("build_"):
            original = getattr(problems, name)
            fn(original, build(original))

    # cli
    meth(cli.RunConfig, "from_dict", lambda m: _wrap(rec, "cli.parse", m))
    for name in ("build_instance", "parse_schedule", "parse_stop"):
        original = getattr(cli, name)
        fn(original, _wrap(rec, "cli.parse", original))

    def trace_bytes(out, args, kwargs):
        rec.counters["cli.trace.bytes"] += os.path.getsize(args[0])

    fn(cli.write_trace, _wrap(rec, "cli.write_trace", cli.write_trace, after=trace_bytes))
    fn(cli.read_trace, _wrap(rec, "cli.read_trace", cli.read_trace))
    return patches


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(raw: dict, speed: float, overhead_ms: float) -> dict:
    """Per-layer metrics from additive totals; times in nominal ms."""

    def get(key):
        return raw.get(key, 0.0)

    def ms(key):
        return get(key) * 1e-6 * speed

    metrics = {
        "core.as_vector.calls": get("core.as_vector.calls"),
        "core.as_vector.ms": ms("core.as_vector.ns"),
        "core.linear.calls": get("core.linear.calls"),
        "core.linear.ms": ms("core.linear.ns"),
        "core.operator_norm.ms": ms("core.operator_norm.ns"),
        "core.operator_norm.steps": get("core.operator_norm.steps"),
        "core.grad.ms": ms("core.grad.ns"),
        "scalar.solve_monotone.calls": get("scalar.solve_monotone.calls"),
        "scalar.solve_monotone.g_evals": get("scalar.solve_monotone.g_evals"),
        "scalar.solve_monotone.ms": ms("scalar.solve_monotone.ns"),
        "scalar.lambert_w_exp.calls": get("scalar.lambert_w_exp.calls"),
        "catalog.prox.calls": get("catalog.prox.calls"),
        "catalog.prox.ms": ms("catalog.prox.self_ns"),
        "catalog.eval.calls": get("catalog.eval.calls"),
        "catalog.eval.ms": ms("catalog.eval.self_ns"),
    }
    for kind in KINDS:
        coords = get(f"kind.{kind}.coords")
        metrics[f"catalog.prox.{kind}.ns_per_coord"] = get(f"kind.{kind}.ns") * speed / coords if coords else 0.0
    metrics.update(
        {
            "sets.project.calls": get("sets.project.calls"),
            "sets.project.ms": ms("sets.project.self_ns"),
            "solvers.iterations": get("solvers.iterations"),
            "solvers.objective.ms": ms("solvers.objective.ns"),
            "solvers.loop.ms": ms("solvers.solve.self_ns"),
            "problems.build.ms": ms("problems.build.ns"),
            "problems.build.alloc_mb": get("problems.build.alloc_bytes") / 2**20,
            "cli.parse.ms": ms("cli.parse.self_ns"),
            "cli.write_trace.ms": ms("cli.write_trace.ns"),
            "cli.trace.bytes": get("cli.trace.bytes"),
            "cli.read_trace.ms": ms("cli.read_trace.ns"),
            "trace.overhead.ms": overhead_ms,
        }
    )
    return metrics


UNITS = {"calls": "count", "steps": "count", "g_evals": "count", "iterations": "count", "bytes": "bytes", "ms": "ms", "alloc_mb": "MB", "ns_per_coord": "ns"}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def traced_run(wl, workload: str, inputs, clock, seconds: float, dump_stem: str) -> dict:
    """One traced setup, then rounds that alternate untraced and traced for
    ``seconds``; per-layer figures are for one setup plus one round.

    Alternating pairs each traced round with an untraced one a few seconds
    apart, so the host's drift does not leak into the tracing overhead.
    """
    plain_objs = wl.setup(inputs)
    rec = Recorder()
    patches = install(rec)
    try:
        traced_objs = wl.setup(inputs)
    finally:
        patches.restore()
    at_setup = rec.snapshot()
    plain, traced = defaultdict(list), defaultdict(list)
    failures = []
    rounds = 0
    start = time.perf_counter()
    while rounds < 1 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        times, _, last, _, more = harness.measure(wl, inputs, plain_objs, clock, 0.0, min_rounds=1)
        for name, ts in times.items():
            plain[name] += ts
        patches = install(rec)
        try:
            times, _, last, _, more_traced = harness.measure(wl, inputs, traced_objs, clock, 0.0, min_rounds=1)
        finally:
            patches.restore()
        for name, ts in times.items():
            traced[name] += ts
        failures += more + more_traced
        rounds += 1
    at_end = rec.snapshot()
    patches = install(rec)
    try:
        rec.active = False
        rec.measure_alloc = True
        wl.setup(inputs)
    finally:
        patches.restore()
    failures += wl.check(inputs, last)
    speed = clock.speed_factor()
    overhead_s = harness.end_to_end(wl, traced, last)["solve_s"] - harness.end_to_end(wl, plain, last)["solve_s"]
    per_round = {k: at_setup.get(k, 0.0) + (v - at_setup.get(k, 0.0)) / rounds for k, v in at_end.items()}
    per_round["problems.build.alloc_bytes"] = rec.counters["problems.build.alloc_bytes"]
    metrics = layer_metrics(per_round, speed, 1e3 * overhead_s)
    missing = [name for name in EXPECTED_NONZERO[workload] if not metrics[name] > 0]
    failures += [f"per-layer metric {name} reads 0: a wrapper did not catch its function" for name in missing]
    rec.dump(dump_stem)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"rounds={rounds} (each untraced and traced) spans={len(rec.spans)} dropped={rec.dropped} speed={speed:.3f}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": 2 * rounds * len(traced),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
