"""Acceptance gate: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them)."""

import json
import time

import numpy as np
import pytest

from helpers import (
    KIND_NAMES,
    calculus_rule_errors,
    catalog_zoo,
    grid_best_approximation_oracle,
    scalar_kind_max_error,
)
from proxsplit import catalog as cat
from proxsplit import sets
from proxsplit.cli import COMPATIBLE_SOLVERS, RunConfig, main, read_trace, write_trace
from proxsplit.core import (
    IterationRecord,
    Schedule,
    SolveResult,
    firm_nonexpansiveness_violation,
    identity_map,
    matrix_map,
    subgradient_certificate,
)
from proxsplit.problems import (
    build_alternating_projections,
    build_best_approximation,
    build_lasso,
    build_tv1d,
    least_squares_smooth,
    run_instance,
)
from proxsplit.solvers import (
    StoppingRule,
    dr_two_level_residual,
    fb_fixed_point_residual,
    fista,
    forward_backward,
    forward_backward_const,
)

TIGHT = StoppingRule(tol=1e-12, max_iter=100_000)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")


def test_scalar_prox_oracle_suite():
    # every scalar kind x >= 100 randomized draws against the golden-section
    # oracle, agreement <= 1e-6, in under 10 seconds
    t0 = time.perf_counter()
    worst = {name: scalar_kind_max_error(name, draws=100, seed=0) for name in KIND_NAMES}
    elapsed = time.perf_counter() - t0
    ok = all(err <= 1e-6 for err in worst.values()) and elapsed < 10.0
    bad = {k: f"{v:.2e}" for k, v in worst.items() if v > 1e-6}
    _report("scalar-prox-oracle-suite", ok, f"{len(worst)} kinds, {elapsed:.2f}s")
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
    assert not bad, f"kinds over tolerance: {bad}"


def test_calculus_suite():
    errors = calculus_rule_errors(seed=0)
    ok_rules = len(errors) == 16 and all(err <= 1e-6 for err in errors.values())
    # Moreau decomposition: prox_f + prox_{f*} = identity to 1e-12
    rng = np.random.default_rng(2)
    worst_moreau = 0.0
    for f in catalog_zoo():
        conj = cat.conjugate(f)
        for _ in range(20):
            x = rng.standard_normal(f.dim) * 2
            worst_moreau = max(
                worst_moreau, float(np.max(np.abs(f.prox(1.0, x) + conj.prox(1.0, x) - x)))
            )
    ok = ok_rules and worst_moreau <= 1e-12
    _report("calculus-suite", ok, f"16 rules, moreau {worst_moreau:.1e}")
    assert ok_rules, {k: f"{v:.2e}" for k, v in errors.items() if v > 1e-6}
    assert worst_moreau <= 1e-12


def test_firm_nonexpansiveness_and_certificates():
    rng = np.random.default_rng(3)
    zoo = catalog_zoo()
    worst_firm = -np.inf
    worst_cert = -np.inf
    for f in zoo:
        for _ in range(1000):
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            x = rng.standard_normal(f.dim) * 2.0
            y = rng.standard_normal(f.dim) * 2.0
            worst_firm = max(worst_firm, firm_nonexpansiveness_violation(f, x, y, gamma=gamma))
            p = f.prox(gamma, x)
            cert = subgradient_certificate(
                f, x, p, samples=16, gamma=gamma, radius=0.75, seed=int(rng.integers(2**31))
            )
            worst_cert = max(worst_cert, cert)
    ok = worst_firm <= 1e-9 and worst_cert <= 1e-9
    _report(
        "firm-nonexpansiveness-and-certificates",
        ok,
        f"{len(zoo)} functions, firm {worst_firm:.1e}, cert {worst_cert:.1e}",
    )
    assert worst_firm <= 1e-9
    assert worst_cert <= 1e-9


def test_fista_objective_bound():
    # 10-dimensional quadratic with known optimum: the objective obeys
    # 2*beta*||x0 - x*||^2/(n+1)^2 at every recorded iteration up to 500
    rng = np.random.default_rng(4)
    d = rng.uniform(0.5, 3.0, size=10)
    a = rng.standard_normal(10)
    A = np.diag(d)
    f1 = cat.zero_fn(10)
    f2 = least_squares_smooth(matrix_map(A), A @ a)
    x0 = np.zeros(10)
    res = fista(f1, f2, x0=x0, stop=StoppingRule(tol=1e-30, max_iter=500))
    beta = f2.lipschitz
    budget = 2.0 * beta * float(np.linalg.norm(x0 - a) ** 2)
    violations = [
        rec.iteration
        for rec in res.records
        if rec.objective > budget / (rec.iteration + 1) ** 2 + 1e-12
    ]
    ok = res.iterations == 500 and not violations
    _report("fista-bound", ok, f"500 iterations, {len(violations)} violations")
    assert res.iterations == 500
    assert not violations


def test_cross_solver_lasso_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    A = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    inst = build_lasso(A, y, np.full(3, 0.3))
    tags = ("forward_backward", "forward_backward_const", "fista", "douglas_rachford", "ppxa", "sdmm")
    results = {tag: run_instance(inst, tag, stop=TIGHT) for tag in tags}
    elapsed = time.perf_counter() - t0
    worst_pair = 0.0
    for i, ti in enumerate(tags):
        for tj in tags[i + 1 :]:
            worst_pair = max(
                worst_pair,
                float(np.max(np.abs(results[ti].final_x - results[tj].final_x))),
            )
    worst_kkt = max(inst.validator(res)["kkt_residual"] for res in results.values())
    ok = worst_pair <= 1e-5 and worst_kkt <= 1e-8 and elapsed < 5.0
    _report(
        "cross-solver-lasso",
        ok,
        f"pairwise {worst_pair:.1e}, kkt {worst_kkt:.1e}, {elapsed:.2f}s",
    )
    assert worst_pair <= 1e-5
    assert worst_kkt <= 1e-8
    assert elapsed < 5.0


def test_geometry_examples():
    unit = Schedule(gamma=1.0, lam=1.0)
    # intervals: the closest point of [0,1] to [2,3] is 1
    inst1 = build_alternating_projections(sets.Box([0.0], [1.0]), sets.Box([2.0], [3.0]))
    r1 = run_instance(inst1, "forward_backward", unit, stop=TIGHT)
    err_interval = abs(r1.final_x[0] - 1.0)
    # disks: boundary point of C along the center line
    c1, rad1 = np.array([0.0, 0.0]), 1.0
    c2, rad2 = np.array([4.0, 3.0]), 1.5
    inst2 = build_alternating_projections(sets.Ball(c1, rad1), sets.Ball(c2, rad2))
    r2 = run_instance(inst2, "forward_backward", unit, stop=TIGHT)
    u = (c2 - c1) / np.linalg.norm(c2 - c1)
    err_disk = float(np.max(np.abs(r2.final_x - (c1 + rad1 * u))))
    # Dykstra best approximation on the quarter disk against the grid oracle
    C = sets.Ball(np.zeros(2), 1.0)
    D = sets.Halfspace(np.array([-1.0, 0.0]), 0.0)
    r = np.array([-2.0, 2.0])
    inst3 = build_best_approximation(C, D, r)
    r3 = run_instance(inst3, "dykstra_like", stop=TIGHT)
    err_dykstra = float(np.max(np.abs(r3.final_x - grid_best_approximation_oracle(C, D, r, halfwidth=1.5))))
    # halfplane pair with a separable answer
    inst4 = build_best_approximation(
        sets.Halfspace(np.array([1.0, 0.0]), 1.0), sets.Halfspace(np.array([0.0, 1.0]), 1.0), [2.0, 2.0]
    )
    r4 = run_instance(inst4, "dykstra_like", stop=TIGHT)
    err_halfplane = float(np.max(np.abs(r4.final_x - np.ones(2))))
    ok = err_interval <= 1e-8 and err_disk <= 1e-8 and err_dykstra <= 1e-4 and err_halfplane <= 1e-8
    _report(
        "geometry-examples",
        ok,
        f"interval {err_interval:.1e}, disk {err_disk:.1e}, dykstra {err_dykstra:.1e}",
    )
    assert err_interval <= 1e-8
    assert err_disk <= 1e-8
    assert err_dykstra <= 1e-4
    assert err_halfplane <= 1e-8


def test_tv_cross_encoding():
    rng = np.random.default_rng(8)
    r = np.concatenate([np.zeros(4), np.ones(4)]) + 0.05 * rng.standard_normal(8)
    inst = build_tv1d(r, 0.3)
    res_dual = run_instance(inst, "dual_forward_backward", stop=TIGHT)
    res_ppxa = run_instance(inst, "ppxa", stop=TIGHT)
    gap = float(np.max(np.abs(res_dual.final_x - res_ppxa.final_x)))
    ok = gap <= 1e-5
    _report("tv-cross-encoding", ok, f"gap {gap:.1e}")
    assert gap <= 1e-5


def test_fixed_point_residuals_at_termination():
    stop = StoppingRule(tol=1e-11, max_iter=100_000)
    worst = 0.0
    # forward-backward family on the interval problem and the lasso
    rng = np.random.default_rng(42)
    A = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    f1 = cat.weighted_l1(np.full(3, 0.3))
    f2 = least_squares_smooth(matrix_map(A), y)
    for solver in (forward_backward, forward_backward_const):
        res = solver(f1, f2, stop=stop)
        worst = max(worst, fb_fixed_point_residual(f1, f2, res.aux["gamma"], res.final_x))
    res = fista(f1, f2, stop=stop)
    worst = max(worst, fb_fixed_point_residual(f1, f2, res.aux["gamma"], res.final_x))
    ind = sets.indicator(sets.Box([0.0], [1.0]))
    from proxsplit.problems import set_distance_smooth

    dsm = set_distance_smooth(sets.Box([2.0], [3.0]))
    res = forward_backward(ind, dsm, Schedule(gamma=1.0, lam=1.0), x0=[5.0], stop=stop)
    worst = max(worst, fb_fixed_point_residual(ind, dsm, res.aux["gamma"], res.final_x))
    # Douglas-Rachford two-level condition on the same problems
    f2p = cat.quadratic(matrix_map(A), y, 1.0)
    from proxsplit.solvers import douglas_rachford

    res = douglas_rachford(f1, f2p, gamma=1.0, stop=stop)
    worst = max(worst, dr_two_level_residual(f1, f2p, res.aux["gamma"], res.aux["y"]))
    sqd = cat.squared_distance(sets.indicator(sets.Box([2.0], [3.0])))
    res = douglas_rachford(ind, sqd, gamma=1.0, y0=[5.0], stop=stop)
    worst = max(worst, dr_two_level_residual(ind, sqd, res.aux["gamma"], res.aux["y"]))
    ok = worst <= 10 * stop.tol
    _report("fixed-point-residuals", ok, f"worst {worst:.1e} vs {10 * stop.tol:.0e}")
    assert worst <= 10 * stop.tol


def test_cli_contract(tmp_path, capsys):
    rng = np.random.default_rng(21)
    A = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    base = {
        "problem": {"tag": "lasso", "A": A.tolist(), "y": y.tolist(), "weights": [0.3, 0.3, 0.3]},
        "solver": "fista",
        "stop": {"tol": 1e-10, "max_iter": 20000},
    }
    good = tmp_path / "good.json"
    good.write_text(json.dumps(base))
    trace = tmp_path / "trace.csv"
    out = tmp_path / "out.json"
    code_ok = main(["solve", "--config", str(good), "--trace", str(trace), "--out", str(out)])
    records = read_trace(str(trace))
    monotone = [r.iteration for r in records] == list(range(1, len(records) + 1))

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**base, "solver": "forward_backward", "schedule": {"gamma": 1e6}}))
    code_bad = main(["solve", "--config", str(bad)])
    err = capsys.readouterr().err
    cites_interval = "admissible interval [" in err

    pocs_doc = {
        "problem": {
            "tag": "feasibility",
            "sets": [
                {"type": "hyperplane", "a": [1.0, 0.0], "b": 0.0},
                {"type": "hyperplane", "a": [1.0, 0.0], "b": 1.0},
            ],
        },
        "solver": "pocs",
        "stop": {"tol": 1e-12, "max_iter": 200},
    }
    infeasible = tmp_path / "pocs.json"
    infeasible.write_text(json.dumps(pocs_doc))
    code_infeasible = main(["solve", "--config", str(infeasible)])

    cfg = RunConfig.from_dict(base)
    round_trip = cfg == RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    rec = (IterationRecord(1, 1.0 / 3.0, float("inf"), 10), IterationRecord(2, 0.1, 2.5e-11, 20))
    trace2 = tmp_path / "t2.csv"
    write_trace(str(trace2), SolveResult(np.zeros(1), True, 2, rec))
    trace_lossless = read_trace(str(trace2)) == list(rec)

    ok = (
        code_ok == 0
        and monotone
        and code_bad == 1
        and cites_interval
        and code_infeasible == 2
        and round_trip
        and trace_lossless
    )
    _report(
        "cli-contract",
        ok,
        f"exit codes {code_ok}/{code_bad}/{code_infeasible}, round trips {round_trip and trace_lossless}",
    )
    assert code_ok == 0 and monotone
    assert code_bad == 1 and cites_interval
    assert code_infeasible == 2
    assert round_trip and trace_lossless
