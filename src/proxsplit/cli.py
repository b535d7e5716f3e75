"""Command-line front end.

Subcommands:

* ``solve``     -- parse a JSON problem configuration, run a solver, write a
                   CSV trace and a JSON result.  Exit 0 on convergence, 2 when
                   the run ended without converging (the iteration cap was
                   hit, or the solver stopped early, e.g. at a fixed point
                   outside the feasible set), 1 on any error.
* ``prox-eval`` -- print a table of scalar prox values for one catalog kind.
* ``check``     -- run the invariant suite (adjoint consistency, gradient
                   checks, firm nonexpansiveness, prox certificates) on a
                   configuration's components.

The configuration is a single JSON document; vectors are arrays, matrices are
arrays of row arrays, all numbers decimal.  Box bounds may use ``null`` for
an absent (infinite) bound.  Trace files are CSV with the exact header
``iter,objective,residual,elapsed_ns``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import repeat
from typing import Optional

import numpy as np

from . import catalog, problems, sets, solvers
from .core import (
    InvalidInputError,
    IterationRecord,
    PreconditionError,
    Schedule,
    SmoothFn,
    ProxFn,
    LinearMap,
    SolveResult,
    as_count,
    as_real,
    as_vector,
    check_adjoint,
    firm_nonexpansiveness_violation,
    gradient_check_error,
    matrix_map,
    subgradient_certificate,
)
from .scalar import BracketingError

__all__ = ["RunConfig", "main", "write_trace", "read_trace", "COMPATIBLE_SOLVERS"]

TRACE_HEADER = "iter,objective,residual,elapsed_ns"

COMPATIBLE_SOLVERS = problems._COMPATIBLE_SOLVERS


class ConfigError(ValueError):
    pass


def _json(value, kind: type, context: str):
    if not isinstance(value, kind):
        raise ConfigError(f"{context} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _fields(doc, context: str, table: dict, key: Optional[str] = None) -> list:
    """The value of each field of ``table`` (name -> default, MISSING for a
    required field) in the JSON object ``doc``, in table order; ``key`` names
    one more known field.  A missing required field or an unknown one is a
    ConfigError naming it."""
    unknown = _json(doc, dict, context).keys() - table.keys() - {key}
    if unknown:
        raise ConfigError(f"{context} has unknown field(s): {', '.join(sorted(unknown))}")
    values = [doc.get(name, default) for name, default in table.items()]
    missing = [name for name, value in zip(table, values) if value is MISSING]
    if missing:
        raise ConfigError(f"{context} missing required field '{missing[0]}'")
    return values


def _entry(table: dict, name, context: str, key: str) -> tuple:
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{context}: unknown {key} {name!r} (known: {', '.join(sorted(table))})")
    return table[name]


def _spec(doc, context: str, key: str, table: dict, **defaults):
    """The library object that ``doc`` names by its field ``key`` in
    ``table``, called with the other fields; ``defaults`` replace the table's."""
    if key not in _json(doc, dict, context):
        raise ConfigError(f"{context} missing required field '{key}'")
    build, fields_ = _entry(table, doc[key], context, key)
    return build(*_fields(doc, context, {name: defaults.get(name, d) for name, d in fields_.items()}, key))


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def _required(*names) -> dict:
    return dict.fromkeys(names, MISSING)


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; serializes losslessly to/from JSON."""

    problem: dict
    solver: str
    schedule: Optional[dict] = None
    stop: Optional[dict] = None
    seed: Optional[int] = None
    trace: Optional[str] = None
    out: Optional[str] = None

    def __post_init__(self):
        for name, value in (("solver", self.solver), ("trace", self.trace), ("out", self.out)):
            if not isinstance(value, str) and (name == "solver" or value is not None):
                raise ConfigError(f"{name} must be a string{'' if name == 'solver' else ' or null'}, got {value!r}")
        if self.seed is not None:
            as_count(self.seed, "seed")

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        return RunConfig(*_fields(doc, "config", _CONFIG_FIELDS))

    def to_dict(self) -> dict:
        return asdict(self)


_CONFIG_FIELDS = _defaults(RunConfig)


def _bound(values, side: str) -> list:
    # null -> missing bound on that side; sets.Box checks the other entries
    missing = -np.inf if side == "lo" else np.inf
    return [missing if v is None else v for v in _json(values, list, f"box {side}")]


def _sets(**specs) -> list:
    return [parse_set(doc, f"problem field {name}") for name, doc in specs.items()]


def _l1(dim, weight) -> ProxFn:
    return catalog.weighted_l1(np.full(as_count(dim, "dim", 1), as_real(weight, "weight", above=0.0)))


def _scalar_kind(cls):
    # a JSON object in place of a value is a nested kind spec (SmoothPlusSupport's psi)
    return lambda *values: cls(*(parse_scalar_kind(v) if isinstance(v, dict) else v for v in values))


def _denoise(f, g, r):
    r = as_vector(r, name="r")
    return problems.build_denoise(parse_prox_fn(f, r.size), parse_prox_fn(g, r.size), r)


# One table per spec family: name -> (library callable, {field: default}).  The
# callable takes the field values in table order, as the JSON document holds
# them, and the library checks them.  problems.build_<tag> and
# catalog.separable are looked up at call time, so that a tracer's rebinding
# of them is honoured.
_PROBLEM_TAGS = {
    "lasso": (lambda *values: problems.build_lasso(*values), _required("A", "y", "weights")),
    "constrained_least_squares": (
        lambda L, y, C: problems.build_constrained_least_squares(matrix_map(L), y, *_sets(C=C)),
        _required("L", "y", "C"),
    ),
    "alternating_projections": (
        lambda C, D: problems.build_alternating_projections(*_sets(C=C, D=D)), _required("C", "D"),
    ),
    "best_approximation": (
        lambda C, D, r: problems.build_best_approximation(*_sets(C=C, D=D), r), _required("C", "D", "r"),
    ),
    "denoise": (_denoise, _required("f", "g", "r")),
    "tv1d": (lambda *values: problems.build_tv1d(*values), _required("r", "omega")),
    "feasibility": (
        lambda specs: problems.build_feasibility([parse_set(s) for s in _json(specs, list, "problem field sets")]),
        _required("sets"),
    ),
}
_SET_TYPES = {
    "box": (lambda lo, hi: sets.Box(_bound(lo, "lo"), _bound(hi, "hi")), _required("lo", "hi")),
    "halfspace": (sets.Halfspace, _required("a", "b")),
    "hyperplane": (sets.Hyperplane, _required("a", "b")),
    "ball": (sets.Ball, _required("center", "radius")),
    "orthant": (sets.orthant, _required("dim")),
    "affine": (sets.AffineSubspace, _required("A", "b")),
}
# a dim of None is the length of the problem's r
_FUNCTION_KINDS = {
    "zero": (catalog.zero_fn, {"dim": None}),
    "l1": (_l1, {"dim": None, "weight": 1.0}),
    "nonneg": (lambda dim: sets.indicator(sets.orthant(dim)), {"dim": None}),
    "indicator": (lambda spec: sets.indicator(parse_set(spec)), _required("set")),
    "separable": (lambda spec, dim: catalog.separable(parse_scalar_kind(spec), dim), {**_required("scalar"), "dim": None}),
}
# a scalar kind's fields are its dataclass fields
_SCALAR_KINDS = {name: (_scalar_kind(cls), _defaults(cls)) for name, cls in catalog.SCALAR_KINDS.items()}


def parse_set(doc, context: str = "set spec") -> sets.ConvexSet:
    return _spec(doc, context, "type", _SET_TYPES)


def parse_scalar_kind(doc) -> catalog.ScalarKind:
    return _spec(doc, "scalar kind spec", "kind", _SCALAR_KINDS)


def parse_prox_fn(doc, dim_hint: Optional[int] = None) -> ProxFn:
    return _spec(doc, "function spec", "kind", _FUNCTION_KINDS, dim=dim_hint)


def build_instance(cfg: RunConfig) -> problems.ProblemInstance:
    return _spec(cfg.problem, "problem", "tag", _PROBLEM_TAGS)


def parse_schedule(doc: Optional[dict]) -> Optional[Schedule]:
    if doc is None:
        return None
    return Schedule(*_fields(doc, "schedule", dict.fromkeys(("gamma", "lambda", "epsilon"))))


def parse_stop(doc: Optional[dict], tol=None, max_iter=None) -> solvers.StoppingRule:
    table = _defaults(solvers.StoppingRule)
    values = dict(zip(table, _fields({} if doc is None else doc, "stop", table)))
    values.update((name, v) for name, v in (("tol", tol), ("max_iter", max_iter)) if v is not None)
    return solvers.StoppingRule(**values)


# one trace row per record: the iteration, the objective and residual as
# their repr (which reads back to the same float) and the elapsed ns
_TRACE_ROW = "%s,%r,%r,%s\n"


def write_trace(path: str, result: SolveResult) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n" + "".join(map(_TRACE_ROW.__mod__, result.records)))


def read_trace(path: str) -> list:
    """The records of a trace file; a wrong header or a malformed row raises
    ``InvalidInputError``, which names the row's 1-based line number.

    The rows are parsed a column at a time once every row is seen to hold
    four fields; only when that fails are they read again one by one, to
    find the first malformed row."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise InvalidInputError(f"unexpected trace header: {header!r}")
        lines = fh.read().split("\n")
    if not lines[-1]:  # what follows the final newline (or an empty body)
        lines.pop()
    try:
        if any(map((3).__ne__, map(str.count, lines, repeat(",")))):
            raise ValueError("a row does not hold four fields")
        cells = ",".join(lines).split(",") if lines else []
        columns = map(int, cells[0::4]), map(float, cells[1::4]), map(float, cells[2::4]), map(int, cells[3::4])
        return list(map(IterationRecord, *columns))
    except ValueError:
        for number, line in enumerate(lines, 2):
            try:
                it, obj, res, ns = line.split(",")
                int(it), float(obj), float(res), int(ns)
            except ValueError as exc:
                raise InvalidInputError(f"trace line {number}: {exc}") from None
        raise


def write_result(path: str, result: SolveResult) -> None:
    doc = {
        "final_x": [float(v) for v in result.final_x],
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _cmd_solve(args) -> int:
    with open(args.config) as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    if args.solver:
        cfg = RunConfig(**{**cfg.to_dict(), "solver": args.solver})
    instance = build_instance(cfg)
    schedule = parse_schedule(cfg.schedule)
    stop = parse_stop(cfg.stop, tol=args.tol, max_iter=args.max_iter)
    result = problems.run_instance(instance, cfg.solver, schedule=schedule, stop=stop)
    trace_path = args.trace or cfg.trace
    out_path = args.out or cfg.out
    if trace_path:
        write_trace(trace_path, result)
    if out_path:
        write_result(out_path, result)
    if result.converged:
        status = "converged"
    elif result.iterations == stop.max_iter:
        status = "max_iter reached"
    else:
        status = "stopped without converging"
    print(f"{instance.tag}/{cfg.solver}: {status} after {result.iterations} iterations")
    return 0 if result.converged else 2


def _cmd_prox_eval(args) -> int:
    build, table = _entry(_SCALAR_KINDS, args.kind, "prox-eval", "--kind")
    kind = build(*_fields(json.loads(args.params), "--params", table))
    print("x prox objective")
    for x in args.x:
        p = catalog.scalar_prox(kind, x, args.gamma)
        try:
            square = (x - p) ** 2
        except OverflowError:  # a float's ** raises where the square passes the largest float
            square = math.inf
        obj = args.gamma * kind.value(p) + 0.5 * square
        print(f"{x!r} {p!r} {obj!r}")
    return 0


def _walk_components(obj, prefix: str):
    if isinstance(obj, (ProxFn, SmoothFn, LinearMap)):
        yield prefix, obj
    elif isinstance(obj, dict):
        for key, val in obj.items():
            yield from _walk_components(val, f"{prefix}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            yield from _walk_components(val, f"{prefix}[{i}]")


def _cmd_check(args) -> int:
    with open(args.config) as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    instance = build_instance(cfg)
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed or 0)
    draw = lambda n: rng.standard_normal(n) * 2.0  # noqa: E731
    failures = 0
    checked = set()
    for name, obj in _walk_components(instance.components, instance.tag):
        if id(obj) in checked:  # an object reached again by another path was checked at its first
            continue
        checked.add(id(obj))
        if isinstance(obj, LinearMap):
            gap = check_adjoint(obj, trials=16, seed=int(rng.integers(2**31)))
            report, ok = f"adjoint gap {gap:.3e}", gap <= 1e-10
        elif isinstance(obj, SmoothFn):
            err = max(gradient_check_error(obj, draw(obj.dim)) for _ in range(10))
            report, ok = f"gradient check {err:.3e}", err <= 1e-5
        else:  # a ProxFn, the one kind left that _walk_components yields
            firm = max(firm_nonexpansiveness_violation(obj, draw(obj.dim), draw(obj.dim)) for _ in range(50))
            cert = -np.inf
            for _ in range(20):
                x, seed = draw(obj.dim), int(rng.integers(2**31))
                cert = max(cert, subgradient_certificate(obj, x, obj.prox(1.0, x), samples=32, radius=0.5, seed=seed))
            report, ok = f"firm nonexpansiveness {firm:.3e}, prox certificate {cert:.3e}", firm <= 1e-9 and cert <= 1e-9
        print(f"{name}: {report} {'ok' if ok else 'FAIL'}")
        failures += not ok
    if failures:
        print(f"{failures} component(s) failed")
        return 1
    print("all component checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="proxsplit", description="Proximal-splitting solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver on a JSON problem config")
    p_solve.add_argument("--config", required=True, help="path to the JSON configuration")
    p_solve.add_argument("--solver", default=None, help="override the configured solver")
    p_solve.add_argument("--trace", default=None, help="CSV trace output path")
    p_solve.add_argument("--out", default=None, help="JSON result output path")
    p_solve.add_argument("--tol", type=float, default=None, help="override stopping tolerance")
    p_solve.add_argument("--max-iter", type=int, default=None, help="override iteration cap")
    p_solve.set_defaults(func=_cmd_solve)

    p_prox = sub.add_parser("prox-eval", help="evaluate a scalar prox kind on a list of points")
    p_prox.add_argument("--kind", required=True, help="scalar kind name")
    p_prox.add_argument("--params", default="{}", help="JSON object of kind parameters")
    p_prox.add_argument("--gamma", type=float, default=1.0, help="prox scale")
    p_prox.add_argument("--x", nargs="+", type=float, required=True, help="evaluation points")
    # argparse's own pattern reads -1e3 as an option: here - then a digit or .digit starts a number
    p_prox._negative_number_matcher = re.compile(r"^-\.?\d")
    p_prox.set_defaults(func=_cmd_prox_eval)

    p_check = sub.add_parser("check", help="run the invariant suite on a config's components")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=_cmd_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` builds per process; parsing changes nothing in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a run that did not converge
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # the toolkit's errors are ValueErrors or TypeErrors, but for these two
    except (PreconditionError, BracketingError, OSError, TypeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
