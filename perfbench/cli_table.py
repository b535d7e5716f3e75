"""cli_table: every (problem tag, solver) pair of ``cli.COMPATIBLE_SOLVERS``
through ``cli.main(["solve", ...])`` on desk-scale configs.

On inputs this small, per-call validation, dispatch, the tracer and trace
I/O outweigh the arithmetic.  This is also the only workload that reaches
``sets``, pocs, the Dykstra solvers and the CLI.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import oracles
import tv1d
from proxsplit import cli

BASE_SEED = 2009
TOL = 1e-12
TV_TOL = 1e-10
MAX_ITER = 100_000
SOLUTION_TOL = 1e-7
KKT_TOL = 1e-8
TV_CERT_TOL = 1e-7
DIST_TOL = 1e-9
PG_TOL = 1e-8


def _lasso(rng):
    A = rng.standard_normal((10, 20)) / np.sqrt(10)
    x0 = np.zeros(20)
    x0[rng.choice(20, 3, replace=False)] = 2.0 * rng.standard_normal(3)
    y = A @ x0 + 0.05 * rng.standard_normal(10)
    w = 0.1 * float(np.max(np.abs(A.T @ y)))
    return {"tag": "lasso", "A": A.tolist(), "y": y.tolist(), "weights": [w] * 20}


def _constrained_least_squares(rng):
    return {
        "tag": "constrained_least_squares",
        "L": rng.standard_normal((12, 8)).tolist(),
        "y": (2.0 * rng.standard_normal(12)).tolist(),
        "C": {"type": "box", "lo": [-0.5] * 8, "hi": [0.5] * 8},
    }


def _alternating_projections(rng):
    # a unit ball and a halfspace at distance gap from it: the nearest point of
    # the ball to the halfspace is unique
    c = rng.uniform(-1.0, 1.0, 3)
    a = rng.standard_normal(3)
    gap = float(rng.uniform(0.5, 1.5))
    b = float(a @ c) - np.linalg.norm(a) * (1.0 + gap)
    return {
        "tag": "alternating_projections",
        "C": {"type": "ball", "center": c.tolist(), "radius": 1.0},
        "D": {"type": "halfspace", "a": a.tolist(), "b": b},
    }


def _best_approximation(rng):
    a = rng.uniform(0.5, 1.5, 4)
    return {
        "tag": "best_approximation",
        "C": {"type": "box", "lo": [-1.0] * 4, "hi": [1.0] * 4},
        "D": {"type": "halfspace", "a": a.tolist(), "b": float(rng.uniform(0.2, 1.0))},
        "r": rng.uniform(1.0, 3.0, 4).tolist(),
    }


def _denoise(rng):
    return {
        "tag": "denoise",
        "r": rng.uniform(-3.0, 3.0, 10).tolist(),
        "f": {"kind": "separable", "scalar": {"kind": "power_abs", "kappa": float(rng.uniform(0.3, 1.0)), "q": 1.5}},
        "g": {"kind": "indicator", "set": {"type": "box", "lo": [-1.0] * 10, "hi": [1.5] * 10}},
    }


def _tv1d(rng):
    return {"tag": "tv1d", "r": tv1d.piecewise_signal(rng, 32).tolist(), "omega": 0.5}


def _feasibility(rng):
    c = np.array([3.0, 0.0, 0.0]) + rng.uniform(-0.3, 0.3, 3)
    return {
        "tag": "feasibility",
        "sets": [
            {"type": "ball", "center": c.tolist(), "radius": 1.5},
            {"type": "halfspace", "a": [-1.0, 0.0, 0.0], "b": -float(rng.uniform(2.0, 2.5))},
            {"type": "box", "lo": [None, -0.5, -0.5], "hi": [None, 0.5, 0.5]},
        ],
    }


_PROBLEMS = {
    "lasso": _lasso,
    "constrained_least_squares": _constrained_least_squares,
    "alternating_projections": _alternating_projections,
    "best_approximation": _best_approximation,
    "denoise": _denoise,
    "tv1d": _tv1d,
    "feasibility": _feasibility,
}


# Each seed moves a fixed base problem by a symmetry of that problem: a
# rotation of the rows and a signed permutation of the unknowns for the least
# squares terms, a rotation of space for the ball and halfspace, a signed
# permutation where the sets are symmetric boxes, reversal and negation of the
# TV signal.  The data differ from seed to seed but the problem's difficulty,
# and so its iteration count, does not.


def _signed_permutation(rng, n):
    return rng.permutation(n), rng.choice([-1.0, 1.0], n)


def _move_least_squares(p, rng, matrix):
    M, y = np.array(p[matrix]), np.array(p["y"])
    Q, _ = np.linalg.qr(rng.standard_normal((M.shape[0], M.shape[0])))
    perm, signs = _signed_permutation(rng, M.shape[1])
    moved = {**p, matrix: (Q @ M[:, perm] * signs).tolist(), "y": (Q @ y).tolist()}
    if "weights" in p:
        moved["weights"] = [p["weights"][k] for k in perm]
    return moved


def _move_alternating_projections(p, rng):
    R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    C, D = p["C"], p["D"]
    return {
        **p,
        "C": {**C, "center": (R @ np.array(C["center"])).tolist()},
        "D": {**D, "a": (R @ np.array(D["a"])).tolist()},
    }


def _move_best_approximation(p, rng):
    perm, signs = _signed_permutation(rng, 4)
    D = p["D"]
    return {**p, "D": {**D, "a": (np.array(D["a"])[perm] * signs).tolist()}, "r": (np.array(p["r"])[perm] * signs).tolist()}


def _move_denoise(p, rng):
    return {**p, "r": np.array(p["r"])[rng.permutation(len(p["r"]))].tolist()}


def _move_tv1d(p, rng):
    r = np.array(p["r"])
    if rng.random() < 0.5:
        r = r[::-1]
    return {**p, "r": (r * rng.choice([-1.0, 1.0])).tolist()}


def _move_feasibility(p, rng):
    perm, signs = _signed_permutation(rng, 2)  # the y and z axes
    ball, half, box = p["sets"]
    center = np.array(ball["center"])
    center[1:] = center[1:][perm] * signs
    return {**p, "sets": [{**ball, "center": center.tolist()}, half, box]}


_MOVES = {
    "lasso": lambda p, rng: _move_least_squares(p, rng, "A"),
    "constrained_least_squares": lambda p, rng: _move_least_squares(p, rng, "L"),
    "alternating_projections": _move_alternating_projections,
    "best_approximation": _move_best_approximation,
    "denoise": _move_denoise,
    "tv1d": _move_tv1d,
    "feasibility": _move_feasibility,
}


def make_inputs(seed: int, workdir: str) -> dict:
    """One problem per tag, one config file per (tag, solver)."""
    base = np.random.default_rng(BASE_SEED)
    rng = np.random.default_rng(seed)
    out = {}
    for tag, solver_tags in cli.COMPATIBLE_SOLVERS.items():
        problem = _MOVES[tag](_PROBLEMS[tag](base), rng)
        tol = TV_TOL if tag == "tv1d" else TOL
        for solver in solver_tags:
            name = f"{tag}/{solver}"
            stem = os.path.join(workdir, name.replace("/", "--"))
            doc = {"problem": problem, "solver": solver, "stop": {"tol": tol, "max_iter": MAX_ITER}}
            with open(stem + ".json", "w") as fh:
                json.dump(doc, fh)
            out[name] = {"problem": problem, "config": stem + ".json", "trace": stem + ".csv", "out": stem + ".out.json"}
    return out


def setup(inputs) -> list:
    built = []
    for item in inputs.values():
        with open(item["config"]) as fh:
            built.append(cli.build_instance(cli.RunConfig.from_dict(json.load(fh))))
    return built


def cases(inputs, objs) -> list:
    def solve(item):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", "--config", item["config"], "--trace", item["trace"], "--out", item["out"]])
        records = cli.read_trace(item["trace"])
        with open(item["out"]) as fh:
            doc = json.load(fh)
        return np.array(doc["final_x"]), doc["iterations"], doc["converged"], code, records

    return [(name, (lambda item=item: solve(item))) for name, item in inputs.items()]


def work(out) -> int:
    return out[1]


def _trace_failures(path: str, records, iterations: int) -> list:
    with open(path) as fh:
        text = fh.read()
    expected = "".join(f"{r.iteration},{r.objective!r},{r.residual!r},{r.elapsed_ns}\n" for r in records)
    failures = []
    if not text.startswith(cli.TRACE_HEADER + "\n") or text[len(cli.TRACE_HEADER) + 1 :] != expected:
        failures.append("trace does not read back losslessly")
    if len(records) != iterations or [r.iteration for r in records] != list(range(1, iterations + 1)):
        failures.append(f"trace holds {len(records)} rows for {iterations} iterations")
    return failures


def _answer_error(p: dict, x) -> tuple:
    """(residual, tolerance) of the problem's own optimality property at x."""
    tag = p["tag"]
    if tag == "lasso":
        A, y, w = np.array(p["A"]), np.array(p["y"]), np.array(p["weights"])
        return oracles.lasso_kkt(A, y, w, x), KKT_TOL
    if tag == "constrained_least_squares":
        L, y, C = np.array(p["L"]), np.array(p["y"]), p["C"]
        step = x - L.T @ (L @ x - y)
        return float(np.linalg.norm(x - np.clip(step, C["lo"], C["hi"]))), PG_TOL
    if tag == "alternating_projections":
        c, a = np.array(p["C"]["center"]), np.array(p["D"]["a"])
        return float(np.linalg.norm(x - (c - a / np.linalg.norm(a)))), SOLUTION_TOL
    if tag == "best_approximation":
        C, D, r = p["C"], p["D"], np.array(p["r"])
        ref = oracles.project_box_halfspace(r, np.array(C["lo"]), np.array(C["hi"]), np.array(D["a"]), D["b"])
        return float(np.linalg.norm(x - ref)), SOLUTION_TOL
    if tag == "denoise":
        box = p["g"]["set"]
        ref = np.clip(oracles.power15_prox(np.array(p["r"]), p["f"]["scalar"]["kappa"]), box["lo"], box["hi"])
        return float(np.linalg.norm(x - ref)), SOLUTION_TOL
    if tag == "tv1d":
        return oracles.tv_certificate(np.array(p["r"]), p["omega"], x), TV_CERT_TOL
    if tag == "feasibility":
        dists = []
        for s in p["sets"]:
            if s["type"] == "ball":
                dists.append(oracles.dist_ball(x, np.array(s["center"]), s["radius"]))
            elif s["type"] == "halfspace":
                dists.append(oracles.dist_halfspace(x, np.array(s["a"]), s["b"]))
            else:
                lo = np.array([-np.inf if v is None else v for v in s["lo"]])
                hi = np.array([np.inf if v is None else v for v in s["hi"]])
                dists.append(oracles.dist_box(x, lo, hi))
        return max(dists), DIST_TOL
    raise KeyError(tag)


def check(inputs, outputs: dict) -> list:
    failures = []
    for name, item in inputs.items():
        x, iterations, converged, code, records = outputs[name]
        if code != 0 or not converged:
            failures.append(f"{name}: exit code {code}, converged={converged}")
        failures += [f"{name}: {msg}" for msg in _trace_failures(item["trace"], records, iterations)]
        err, tol = _answer_error(item["problem"], x)
        if not err <= tol:
            failures.append(f"{name}: optimality residual {err:.2e} > {tol:.0e}")
    return failures
