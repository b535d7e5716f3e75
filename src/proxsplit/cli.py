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
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import catalog, problems, sets, solvers
from .core import (
    InvalidInputError,
    InvalidParameterError,
    InvalidScheduleError,
    IterationRecord,
    PreconditionError,
    Schedule,
    SmoothFn,
    ProxFn,
    LinearMap,
    SolveResult,
    UnsupportedFunctionError,
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

_TOOLKIT_ERRORS = (
    InvalidInputError,
    InvalidParameterError,
    InvalidScheduleError,
    PreconditionError,
    UnsupportedFunctionError,
    BracketingError,
)


class ConfigError(ValueError):
    pass


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

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        _config_object(doc, "config", {f.name for f in fields(RunConfig)})
        return RunConfig(
            problem=_field(doc, "problem", "config"),
            solver=_field(doc, "solver", "config"),
            schedule=doc.get("schedule"),
            stop=doc.get("stop"),
            seed=doc.get("seed"),
            trace=doc.get("trace"),
            out=doc.get("out"),
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _config_object(doc, context: str, known: Optional[set] = None) -> None:
    """Require ``doc`` to be a JSON object, with all its fields in ``known``
    when that is given."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(doc) - known if known is not None else ()
    if unknown:
        raise ConfigError(f"{context} has unknown field(s): {', '.join(sorted(unknown))}")


def _field(doc: dict, name: str, context: str):
    if name not in doc:
        raise ConfigError(f"{context} missing required field '{name}'")
    return doc[name]


def _bound(values, side: str) -> list:
    # null -> missing bound on that side; sets.Box checks the other entries
    if not isinstance(values, list):
        raise ConfigError(f"box {side} must be a JSON array")
    missing = -np.inf if side == "lo" else np.inf
    return [missing if v is None else v for v in values]


def parse_set(doc, context: str = "set spec") -> sets.ConvexSet:
    _config_object(doc, context)
    kind = _field(doc, "type", context)
    if kind == "box":
        return sets.Box(_bound(_field(doc, "lo", "box"), "lo"), _bound(_field(doc, "hi", "box"), "hi"))
    if kind == "halfspace":
        return sets.Halfspace(np.array(_field(doc, "a", "halfspace"), float), _field(doc, "b", "halfspace"))
    if kind == "hyperplane":
        return sets.Hyperplane(np.array(_field(doc, "a", "hyperplane"), float), _field(doc, "b", "hyperplane"))
    if kind == "ball":
        return sets.Ball(np.array(_field(doc, "center", "ball"), float), _field(doc, "radius", "ball"))
    if kind == "orthant":
        return sets.orthant(int(_field(doc, "dim", "orthant")))
    if kind == "affine":
        return sets.AffineSubspace(np.array(_field(doc, "A", "affine"), float), np.array(_field(doc, "b", "affine"), float))
    raise ConfigError(f"unknown set type '{kind}'")


def parse_scalar_kind(doc: dict) -> catalog.ScalarKind:
    _config_object(doc, "scalar kind spec")
    doc = dict(doc)
    name = doc.pop("kind", None)
    if name is None:
        raise ConfigError("scalar kind spec missing required field 'kind'")
    cls = catalog.SCALAR_KINDS.get(name)
    if cls is None:
        raise ConfigError(f"unknown scalar kind '{name}' (known: {', '.join(sorted(catalog.SCALAR_KINDS))})")
    for key, value in doc.items():
        if isinstance(value, dict) and "kind" in value:
            doc[key] = parse_scalar_kind(value)
    return cls(**doc)


def parse_prox_fn(doc: dict, dim_hint: Optional[int] = None) -> ProxFn:
    _config_object(doc, "function spec")
    kind = _field(doc, "kind", "function spec")
    if kind == "zero":
        return catalog.zero_fn(int(doc.get("dim", dim_hint)))
    if kind == "l1":
        n = int(doc.get("dim", dim_hint))
        return catalog.weighted_l1(np.full(n, float(doc.get("weight", 1.0))))
    if kind == "nonneg":
        return sets.indicator(sets.orthant(int(doc.get("dim", dim_hint))))
    if kind == "indicator":
        return sets.indicator(parse_set(_field(doc, "set", "indicator spec")))
    if kind == "separable":
        scalar = parse_scalar_kind(_field(doc, "scalar", "separable spec"))
        return catalog.separable(scalar, dim=int(doc.get("dim", dim_hint)))
    raise ConfigError(f"unknown function kind '{kind}'")


def build_instance(cfg: RunConfig) -> problems.ProblemInstance:
    doc = cfg.problem
    _config_object(doc, "problem")
    tag = _field(doc, "tag", "problem")
    if tag == "lasso":
        return problems.build_lasso(
            np.array(_field(doc, "A", "lasso"), float),
            np.array(_field(doc, "y", "lasso"), float),
            np.atleast_1d(np.array(_field(doc, "weights", "lasso"), float)),
        )
    if tag == "constrained_least_squares":
        return problems.build_constrained_least_squares(
            matrix_map(np.array(_field(doc, "L", tag), float)),
            np.array(_field(doc, "y", tag), float),
            parse_set(_field(doc, "C", tag), "problem field C"),
        )
    if tag == "alternating_projections":
        return problems.build_alternating_projections(
            parse_set(_field(doc, "C", tag), "problem field C"), parse_set(_field(doc, "D", tag), "problem field D")
        )
    if tag == "best_approximation":
        return problems.build_best_approximation(
            parse_set(_field(doc, "C", tag), "problem field C"),
            parse_set(_field(doc, "D", tag), "problem field D"),
            np.array(_field(doc, "r", tag), float),
        )
    if tag == "denoise":
        r = np.array(_field(doc, "r", tag), float)
        return problems.build_denoise(
            parse_prox_fn(_field(doc, "f", tag), dim_hint=r.size),
            parse_prox_fn(_field(doc, "g", tag), dim_hint=r.size),
            r,
        )
    if tag == "tv1d":
        return problems.build_tv1d(
            np.array(_field(doc, "r", tag), float), float(_field(doc, "omega", tag))
        )
    if tag == "feasibility":
        return problems.build_feasibility([parse_set(s) for s in _field(doc, "sets", tag)])
    raise ConfigError(f"unknown problem tag '{tag}'")


def parse_schedule(doc: Optional[dict]) -> Optional[Schedule]:
    if doc is None:
        return None
    _config_object(doc, "schedule", {"gamma", "lambda", "epsilon"})
    return Schedule(gamma=doc.get("gamma"), lam=doc.get("lambda"), epsilon=doc.get("epsilon"))


def parse_stop(doc: Optional[dict], tol=None, max_iter=None) -> Optional[solvers.StoppingRule]:
    if doc is not None:
        _config_object(doc, "stop", {f.name for f in fields(solvers.StoppingRule)})
    doc = dict(doc or {})
    if tol is not None:
        doc["tol"] = tol
    if max_iter is not None:
        doc["max_iter"] = max_iter
    if not doc:
        return None
    return solvers.StoppingRule(**doc)


def write_trace(path: str, result: SolveResult) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in result.records:
            fh.write(f"{rec.iteration},{rec.objective!r},{rec.residual!r},{rec.elapsed_ns}\n")


def read_trace(path: str) -> list:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise InvalidInputError(f"unexpected trace header: {header!r}")
        records = []
        for line in fh:
            it, obj, res, ns = line.rstrip("\n").split(",")
            records.append(IterationRecord(int(it), float(obj), float(res), int(ns)))
    return records


def write_result(path: str, result: SolveResult) -> None:
    doc = {
        "final_x": [float(v) for v in result.final_x],
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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
    elif result.iterations == (stop or solvers.StoppingRule()).max_iter:
        status = "max_iter reached"
    else:
        status = "stopped without converging"
    print(f"{instance.tag}/{cfg.solver}: {status} after {result.iterations} iterations")
    return 0 if result.converged else 2


def _cmd_prox_eval(args) -> int:
    kind = parse_scalar_kind({"kind": args.kind, **json.loads(args.params)})
    gamma = float(args.gamma)
    print("x prox objective")
    for x in args.x:
        p = catalog.scalar_prox(kind, x, gamma)
        obj = gamma * kind.value(p) + 0.5 * (x - p) ** 2
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
    failures = 0
    for name, obj in _walk_components(instance.components, instance.tag):
        if isinstance(obj, LinearMap):
            gap = check_adjoint(obj, trials=16, seed=int(rng.integers(2**31)))
            ok = gap <= 1e-10
            print(f"{name}: adjoint gap {gap:.3e} {'ok' if ok else 'FAIL'}")
        elif isinstance(obj, SmoothFn):
            err = max(
                gradient_check_error(obj, rng.standard_normal(obj.dim) * 2.0) for _ in range(10)
            )
            ok = err <= 1e-5
            print(f"{name}: gradient check {err:.3e} {'ok' if ok else 'FAIL'}")
        elif isinstance(obj, ProxFn):
            firm = max(
                firm_nonexpansiveness_violation(
                    obj, rng.standard_normal(obj.dim) * 2.0, rng.standard_normal(obj.dim) * 2.0
                )
                for _ in range(50)
            )
            cert = -np.inf
            for _ in range(20):
                x = rng.standard_normal(obj.dim) * 2.0
                p = obj.prox(1.0, x)
                cert = max(cert, subgradient_certificate(obj, x, p, samples=32, radius=0.5, seed=int(rng.integers(2**31))))
            ok = firm <= 1e-9 and cert <= 1e-9
            print(f"{name}: firm nonexpansiveness {firm:.3e}, prox certificate {cert:.3e} {'ok' if ok else 'FAIL'}")
        else:
            continue
        if not ok:
            failures += 1
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
    p_prox.set_defaults(func=_cmd_prox_eval)

    p_check = sub.add_parser("check", help="run the invariant suite on a config's components")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a run that did not converge
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (*_TOOLKIT_ERRORS, OSError, TypeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
