import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

import proxsplit

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxsplit import catalog, cli
from proxsplit.cli import (
    COMPATIBLE_SOLVERS,
    RunConfig,
    main,
    read_trace,
    write_trace,
)
from proxsplit import problems
from proxsplit.core import IterationRecord, ProxFn, SolveResult

from helpers import read_trace_per_line, write_trace_per_record

SOLVER_NAMES = (
    "pocs", "forward_backward", "forward_backward_const", "fista", "douglas_rachford", "dykstra_like",
    "dual_forward_backward", "admm", "ppxa", "parallel_dykstra", "sdmm",
)
BOX2 = {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
# one small problem per tag
TAG_PROBLEMS = {
    "lasso": {"tag": "lasso", "A": [[1.0, 0.0], [0.0, 1.0]], "y": [3.0, 0.5], "weights": [1.0, 1.0]},
    "constrained_least_squares": {
        "tag": "constrained_least_squares", "L": [[1.0, 0.0], [0.0, 1.0]], "y": [2.0, -1.0], "C": BOX2,
    },
    "alternating_projections": {
        "tag": "alternating_projections",
        "C": {"type": "box", "lo": [0.0], "hi": [1.0]},
        "D": {"type": "box", "lo": [2.0], "hi": [3.0]},
    },
    "best_approximation": {
        "tag": "best_approximation",
        "C": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "D": {"type": "halfspace", "a": [-1.0, 0.0], "b": 0.0},
        "r": [-2.0, 2.0],
    },
    "denoise": {"tag": "denoise", "f": {"kind": "l1"}, "g": {"kind": "zero"}, "r": [3.0, -0.5, 1.2]},
    "tv1d": {"tag": "tv1d", "r": [0.0, 0.1, 1.0, 0.9], "omega": 0.3},
    "feasibility": {"tag": "feasibility", "sets": [BOX2, {"type": "halfspace", "a": [1.0, 1.0], "b": 1.0}]},
}


def lasso_config(tmp_path, **overrides):
    rng = np.random.default_rng(21)
    A = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    doc = {
        "problem": {"tag": "lasso", "A": A.tolist(), "y": y.tolist(), "weights": [0.3, 0.3, 0.3]},
        "solver": "fista",
        "stop": {"tol": 1e-10, "max_iter": 20000},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# trace values that a plain float draw rarely gives: both infinities, nan,
# both zeros, the smallest subnormal, a subnormal of full precision and the
# edge of the float range
_TRACE_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.2250738585072e-308, 1e308, -1e308]),
    st.floats(),
)


class TestRoundTrip:
    def test_config_reparse_identical(self, tmp_path):
        doc = {
            "problem": {"tag": "tv1d", "r": [0.0, 1.0, 1.5], "omega": 0.25},
            "solver": "ppxa",
            "schedule": {"lambda": 1.0},
            "stop": {"tol": 1e-9, "max_iter": 5000},
            "seed": 3,
            "trace": None,
            "out": None,
        }
        cfg = RunConfig.from_dict(doc)
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert cfg == again

    def test_trace_file_lossless(self, tmp_path):
        records = (
            IterationRecord(1, 0.1, math.inf, 120),
            IterationRecord(2, 1.0 / 3.0, 2.5e-11, 340),
            IterationRecord(3, float("inf"), 0.0, 567),
        )
        result = SolveResult(np.zeros(1), True, 3, records)
        path = tmp_path / "trace.csv"
        write_trace(str(path), result)
        assert read_trace(str(path)) == list(records)
        assert path.read_text().splitlines()[0] == "iter,objective,residual,elapsed_ns"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(_TRACE_FLOATS, _TRACE_FLOATS, st.integers(min_value=0, max_value=2**200)),
            max_size=40,
        )
    )
    def test_trace_bytes_equal_the_per_record_writer(self, rows):
        records = tuple(IterationRecord(n, obj, res, ns) for n, (obj, res, ns) in enumerate(rows, 1))
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = os.path.join(tmp, "trace.csv"), os.path.join(tmp, "ref.csv")
            write_trace(path, SolveResult(np.zeros(1), False, len(records), records))
            write_trace_per_record(ref, records)
            with open(path, "rb") as fh, open(ref, "rb") as fr:
                assert fh.read() == fr.read()
            back = read_trace(path)
        assert len(back) == len(records)
        for got, rec in zip(back, records):
            assert (got.iteration, got.elapsed_ns) == (rec.iteration, rec.elapsed_ns)
            for a, b in ((got.objective, rec.objective), (got.residual, rec.residual)):
                assert type(a) is float
                assert (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))

    def test_records_are_tuples_of_their_fields(self):
        rec = IterationRecord(3, 0.5, 0.25, 7)
        assert rec == (3, 0.5, 0.25, 7)
        assert repr(rec) == "IterationRecord(iteration=3, objective=0.5, residual=0.25, elapsed_ns=7)"
        assert rec._replace(objective=1.5) == IterationRecord(3, 1.5, 0.25, 7)

    def test_result_file_bytes(self, tmp_path):
        result = SolveResult(np.array([0.1, -0.0, 1e300]), True, 0, ())
        path = tmp_path / "result.json"
        cli.write_result(str(path), result)
        expected = '{\n  "final_x": [\n    0.1,\n    -0.0,\n    1e+300\n  ],\n  "converged": true,\n  "iterations": 0\n}\n'
        assert path.read_text() == expected


class TestSolveExitCodes:
    def test_lasso_fista_converges(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path)
        trace = tmp_path / "trace.csv"
        out = tmp_path / "result.json"
        code = main(["solve", "--config", str(cfg), "--trace", str(trace), "--out", str(out)])
        assert code == 0
        records = read_trace(str(trace))
        iters = [r.iteration for r in records]
        assert iters == sorted(iters) and len(set(iters)) == len(iters)
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["iterations"] == len(records)
        assert len(doc["final_x"]) == 3

    def test_gamma_out_of_range_exits_one(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path, solver="forward_backward", schedule={"gamma": 1e6})
        code = main(["solve", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "admissible interval [" in err

    @pytest.mark.parametrize(
        "solver,schedule,message",
        [
            ("douglas_rachford", {"gamma": 1e6}, "schedule gamma is not read"),
            ("fista", {"lambda": 5.0, "gamma": -3}, "solver 'fista' reads no schedule field"),
        ],
    )
    def test_schedule_field_the_solver_does_not_read_exits_one(self, tmp_path, capsys, solver, schedule, message):
        cfg = lasso_config(tmp_path, solver=solver, schedule=schedule)
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_readme_config_with_null_schedule_exits_zero(self, tmp_path):
        doc = {
            "problem": TAG_PROBLEMS["lasso"],
            "solver": "fista",
            "schedule": {"gamma": None, "lambda": None, "epsilon": None},
            "stop": {"tol": 1e-10, "max_iter": 20000},
        }
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path)]) == 0

    def test_infeasible_pocs_exits_two(self, tmp_path):
        doc = {
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
        path = tmp_path / "pocs.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path)]) == 2

    def test_early_stop_is_not_reported_as_cap(self, tmp_path, capsys):
        # disjoint unit balls: POCS reaches a fixed point after 2 iterations,
        # far below the cap, without converging
        doc = {
            "problem": {
                "tag": "feasibility",
                "sets": [
                    {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
                    {"type": "ball", "center": [3.0, 0.0], "radius": 1.0},
                ],
            },
            "solver": "pocs",
            "stop": {"tol": 1e-12, "max_iter": 1100},
        }
        path = tmp_path / "balls.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "stopped without converging after 2 iterations" in out
        assert "max_iter reached" not in out

    def test_cap_is_reported_when_reached(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path, stop={"tol": 1e-300, "max_iter": 7})
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "max_iter reached after 7 iterations" in capsys.readouterr().out

    def test_zero_objective_stride_exits_one(self, tmp_path, capsys):
        doc = {
            "problem": {"tag": "lasso", "A": [[1.0, 2.0], [0.5, 1.1]], "y": [3.0, 0.5], "weights": [0.01, 0.01]},
            "solver": "forward_backward",
            "stop": {"tol": 1e-300, "max_iter": 1100, "objective_stride": 0},
        }
        path = tmp_path / "stride.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path)]) == 1
        assert "objective_stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("stop", [{"max_iter": 1.5}, {"objective_dense_until": -1}, {"objective_stride": 2.5}])
    def test_bad_stop_field_exits_one(self, tmp_path, capsys, stop):
        cfg = lasso_config(tmp_path, stop=stop)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err


class TestConfigDiagnostics:
    def test_missing_field_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": {"tag": "lasso", "A": [[1.0]]}, "solver": "fista"}))
        assert main(["solve", "--config", str(path)]) == 1
        assert "'y'" in capsys.readouterr().err

    def test_unknown_top_level_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"problem": {}, "solver": "fista", "bogus": 1}))
        assert main(["solve", "--config", str(path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_incompatible_solver_lists_alternatives(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path, solver="pocs")
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        for name in COMPATIBLE_SOLVERS["lasso"]:
            assert name in err

    def test_table_is_the_problems_table(self):
        assert COMPATIBLE_SOLVERS is problems._COMPATIBLE_SOLVERS

    def test_every_pair_outside_table_exits_one(self, tmp_path, capsys):
        assert set(TAG_PROBLEMS) == set(COMPATIBLE_SOLVERS)
        for tag, problem in TAG_PROBLEMS.items():
            for solver in SOLVER_NAMES:
                if solver in COMPATIBLE_SOLVERS[tag]:
                    continue
                path = tmp_path / f"{tag}-{solver}.json"
                path.write_text(json.dumps({"problem": problem, "solver": solver}))
                assert main(["solve", "--config", str(path)]) == 1, (tag, solver)
                err = capsys.readouterr().err
                assert "compatible solvers: " + ", ".join(COMPATIBLE_SOLVERS[tag]) in err
                assert "Traceback" not in err

    def test_one_dimensional_lasso_matrix_exits_one(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"problem": {"tag": "lasso", "A": [], "y": [], "weights": [1]}, "solver": "fista"}))
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "expected a matrix" in err
        assert "Traceback" not in err

    def test_solver_flag_overrides(self, tmp_path):
        cfg = lasso_config(tmp_path, solver="pocs")
        assert main(["solve", "--config", str(cfg), "--solver", "fista"]) == 0

    def test_max_iter_flag_caps_run(self, tmp_path):
        cfg = lasso_config(tmp_path)
        assert main(["solve", "--config", str(cfg), "--max-iter", "2"]) == 2

    def test_tol_flag_loosens_stopping(self, tmp_path):
        cfg = lasso_config(tmp_path)
        out = tmp_path / "loose.json"
        assert main(["solve", "--config", str(cfg), "--tol", "1e-2", "--out", str(out)]) == 0
        loose_iters = json.loads(out.read_text())["iterations"]
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert loose_iters < json.loads(out.read_text())["iterations"]

    @pytest.mark.parametrize("field", ["schedule", "stop"])
    def test_non_object_section_exits_one(self, tmp_path, capsys, field):
        cfg = lasso_config(tmp_path, **{field: [1]})
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {field} must be a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "problem, message",
        [
            ([1], "config error: problem must be a JSON object"),
            ("tag", "config error: problem must be a JSON object"),
            (
                {**TAG_PROBLEMS["best_approximation"], "C": 5},
                "config error: problem field C must be a JSON object",
            ),
            (
                {"tag": "feasibility", "sets": [{"type": "box", "lo": [0.0, "a"], "hi": [1.0, 1.0]}]},
                "error: box bound lo must be",
            ),
            (
                {"tag": "feasibility", "sets": [{"type": "box", "lo": 0.0, "hi": [1.0]}]},
                "config error: box lo must be a JSON array",
            ),
            (
                {"tag": "feasibility", "sets": [{"type": "halfspace", "a": [1.0, 0.0], "b": None}]},
                "error: b must be a finite number, got None",
            ),
            (
                {"tag": "feasibility", "sets": [{"type": "halfspace", "a": [1.0, 0.0], "b": math.nan}]},
                "error: b must be a finite number, got nan",
            ),
            (
                {"tag": "feasibility", "sets": [{"type": "hyperplane", "a": [1.0, 0.0], "b": "x"}]},
                "error: b must be a finite number, got 'x'",
            ),
            (
                {"tag": "denoise", "r": [1.0, 2.0], "f": [1], "g": {"kind": "zero"}},
                "config error: function spec must be a JSON object",
            ),
        ],
        ids=["list", "string", "set-number", "box-string", "box-number", "b-null", "b-nan", "b-string", "fn-list"],
    )
    def test_malformed_problem_named(self, tmp_path, capsys, problem, message):
        solver = COMPATIBLE_SOLVERS.get(problem["tag"], ("pocs",))[0] if isinstance(problem, dict) else "pocs"
        cfg = lasso_config(tmp_path, problem=problem, solver=solver)
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 1


class TestUsageErrors:
    """Command-line usage errors exit 1, like every other error; 2 means a run
    that did not converge."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--config", "cfg.json", "--bogus"], "unrecognized arguments: --bogus"),
            (["solve"], "the following arguments are required: --config"),
            (["solve", "--config", "cfg.json", "--tol", "abc"], "invalid float value: 'abc'"),
            (["solve", "--config", "cfg.json", "--seed", "3"], "unrecognized arguments: --seed 3"),
            (["resolve", "--config", "cfg.json"], "invalid choice: 'resolve'"),
            ([], "the following arguments are required: command"),
            (["prox-eval", "--kind", "entropy", "--x", "abc"], "argument --x: invalid float value: 'abc'"),
        ],
    )
    def test_usage_error_exits_one(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["check", "-h"]])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert "usage: proxsplit" in capsys.readouterr().out

    def test_usage_error_exit_status_of_the_module(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(proxsplit.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "proxsplit", "solve", "--config", "cfg.json", "--bogus"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert "unrecognized arguments: --bogus" in proc.stderr


class TestProxEval:
    def test_soft_threshold_table(self, capsys):
        code = main(
            [
                "prox-eval",
                "--kind",
                "interval_support",
                "--params",
                json.dumps({"lo": -1.0, "hi": 1.0}),
                "--x",
                "-2",
                "0",
                "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["x", "prox", "objective"]
        proxes = [float(line.split()[1]) for line in lines[1:]]
        assert proxes == pytest.approx([-1.0, 0.0, 1.0])

    def test_entropy_point(self, capsys):
        assert main(["prox-eval", "--kind", "entropy", "--x", "1.0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert float(out[1].split()[1]) == pytest.approx(0.5671432904097838, rel=1e-9)

    def test_log_threshold_sweep_inside_interval(self, capsys):
        xs = [str(v) for v in np.linspace(-30, 30, 31)]
        code = main(
            ["prox-eval", "--kind", "log_threshold", "--params", json.dumps({"lo": -2.0, "hi": 1.0}), "--x", *xs]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        values = [float(r.split()[1]) for r in rows]
        assert all(-2.0 < v < 1.0 for v in values)
        # thresholds to zero on [1/lo, 1/hi]
        for x, v in zip(map(float, xs), values):
            if 1.0 / -2.0 <= x <= 1.0 / 1.0:
                assert v == 0.0

    def test_nested_kind(self, capsys):
        params = {"psi": {"kind": "power_abs", "kappa": 0.5, "q": 2.0}, "lo": -1.0, "hi": 1.0}
        assert main(["prox-eval", "--kind", "smooth_plus_support", "--params", json.dumps(params), "--x", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert float(out[1].split()[1]) == pytest.approx(1.0)

    def test_unknown_kind(self, capsys):
        assert main(["prox-eval", "--kind", "nope", "--x", "1"]) == 1

    def test_overflowing_objective_is_inf(self, capsys):
        # 0.5 * (1e200 - 1.0) ** 2 passes the largest float; the points after it keep their bytes
        argv = ["prox-eval", "--kind", "interval", "--params", json.dumps({"lo": -1.0, "hi": 1.0})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--x", "1e200", "1e100", "0.5", "-3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "x prox objective", "1e+200 1.0 inf", "1e+100 1.0 5e+199", "0.5 0.5 0.0", "-3.0 -1.0 2.0",
        ]

    @pytest.mark.parametrize(
        "points, xs",
        [(["-1e3"], [-1000.0]), (["1.0", "-1e-3"], [1.0, -0.001]), (["-1e3", "-2.5e-1", "-.5"], [-1000.0, -0.25, -0.5])],
        ids=["exponent", "exponent-after-a-point", "several"],
    )
    def test_negative_points_with_an_exponent(self, capsys, points, xs):
        argv = ["prox-eval", "--kind", "huber", "--params", json.dumps({"kappa": 1.0, "omega": 1.0}), "--x", *points]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(r.split()[0]) for r in rows] == xs

    @pytest.mark.parametrize(
        "points, message",
        [(["-inf"], "expected at least one argument"), (["1.0", "-nan"], "unrecognized arguments"), (["1.0", "-x"], "unrecognized arguments")],
        ids=["-inf", "-nan", "-x"],
    )
    def test_other_dash_arguments_stay_options(self, capsys, points, message):
        argv = ["prox-eval", "--kind", "huber", "--params", json.dumps({"kappa": 1.0, "omega": 1.0}), "--x", *points]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", [None, True])
    def test_malformed_parameter_named(self, capsys, kappa):
        params = json.dumps({"kappa": kappa, "q": 2})
        assert main(["prox-eval", "--kind", "power_abs", "--params", params, "--x", "1"]) == 1
        assert f"error: kappa must be a finite number > 0, got {kappa}" in capsys.readouterr().err


class TestSharedParser:
    """``main`` parses every call with one parser; no call leaves anything in
    it for the next."""

    @staticmethod
    def _solve(capsys, cfg, out, *extra):
        code = main(["solve", "--config", str(cfg), "--out", str(out), *extra])
        return code, capsys.readouterr().out, out.read_text()

    def test_overrides_do_not_carry_over(self, tmp_path, capsys):
        cfg, out = lasso_config(tmp_path), tmp_path / "result.json"
        plain = self._solve(capsys, cfg, out)
        assert plain[0] == 0 and plain[1].startswith("lasso/fista: converged")
        for extra in (["--solver", "forward_backward"], ["--tol", "1e-3"], ["--max-iter", "5"]):
            assert self._solve(capsys, cfg, out, *extra) != plain
            assert self._solve(capsys, cfg, out) == plain

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["solve", "--help"], 0), (["solve", "--bogus"], 1)])
    def test_help_and_usage_errors_leave_the_next_solve_unchanged(self, tmp_path, capsys, argv, code):
        cfg, out = lasso_config(tmp_path), tmp_path / "result.json"
        plain = self._solve(capsys, cfg, out)
        assert main(argv) == code
        capsys.readouterr()
        assert self._solve(capsys, cfg, out) == plain

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


class TestCheck:
    def test_lasso_components_pass(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path)
        assert main(["check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "all component checks passed" in out

    def test_each_object_is_checked_once(self, tmp_path, capsys):
        # the README config: f1, f2_prox and A are also reached through the ppxa and sdmm encodings
        path = tmp_path / "readme.json"
        path.write_text(json.dumps({"problem": TAG_PROBLEMS["lasso"], "solver": "fista"}))
        assert main(["check", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "lasso.A", "lasso.f1", "lasso.f2", "lasso.f2_prox", "lasso.ppxa.f_list[2]",
            "lasso.sdmm_g_list[0]", "lasso.sdmm_L_list[1]",
        ]
        assert lines[-1] == "all component checks passed"

    def test_a_failing_component_fails_the_check(self, tmp_path, capsys, monkeypatch):
        build_lasso = problems.build_lasso

        def with_an_expansive_f1(*args):
            inst = build_lasso(*args)
            f1 = inst.components["f1"]
            inst.components["f1"] = ProxFn(dim=f1.dim, value=f1.value, prox_impl=lambda gamma, x: 2.0 * x)
            return inst

        monkeypatch.setattr(problems, "build_lasso", with_an_expansive_f1)
        assert main(["check", "--config", str(lasso_config(tmp_path))]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line.endswith("FAIL")] == ["lasso.f1"]
        assert lines[-1] == "1 component(s) failed"

    def test_tv_components_pass(self, tmp_path):
        doc = {
            "problem": {"tag": "tv1d", "r": [0.0, 0.4, 1.1, 0.9], "omega": 0.2},
            "solver": "ppxa",
        }
        path = tmp_path / "tv.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--config", str(path)]) == 0


@pytest.mark.parametrize("module", ["proxsplit", "proxsplit.cli"])
def test_module_entry_points_run_without_runtime_warning(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(proxsplit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["prox-eval", "--kind", "interval_support", "--params", '{"lo": -1, "hi": 1}', "--x", "-2", "3"]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == ["x prox objective", "-2.0 -1.0 1.5", "3.0 2.0 2.5"]


@pytest.mark.parametrize(
    "kind, params",
    [("abs_minus_log", {"omega": 1e200}), ("huber", {"kappa": 1.0, "omega": 1e200})],
    ids=["abs_minus_log", "huber"],
)
def test_prox_eval_at_an_omega_whose_square_overflows(kind, params):
    # omega**2 of a float raises OverflowError past about 1.3e154
    src = os.path.dirname(os.path.dirname(os.path.abspath(proxsplit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["prox-eval", "--kind", kind, "--params", json.dumps(params), "--x", "1"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "proxsplit", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0 or (proc.returncode == 1 and proc.stderr.startswith("error: ")), proc.stderr
    assert "Traceback" not in proc.stderr


def test_prox_eval_where_omega_times_the_point_overflows():
    # omega*|x| = 1e310, while the prox is about x - 1e150
    src = os.path.dirname(os.path.dirname(os.path.abspath(proxsplit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["prox-eval", "--kind", "abs_minus_log", "--params", '{"omega": 1e150}', "--x", "1e160", "-1e160"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "proxsplit", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert [line.split()[1] for line in proc.stdout.splitlines()[1:]] == ["9.999999999e+159", "-9.999999999e+159"]



# each case exits 1 with an error naming the field
_DENOISE = {"tag": "denoise", "f": {"kind": "l1"}, "g": {"kind": "zero"}, "r": [3.0, -0.5, 1.2]}
_TV = TAG_PROBLEMS["tv1d"]


def _feasibility(spec):
    return {"tag": "feasibility", "sets": [spec]}


MALFORMED_FIELDS = {
    "l1-misspelt-weight": (
        {"problem": {**_DENOISE, "f": {"kind": "l1", "wieght": 2}}, "solver": "dykstra_like"},
        "config error: function spec has unknown field(s): wieght",
    ),
    "problem-unknown-field": (
        {"problem": {**TAG_PROBLEMS["lasso"], "lambda": 0.1}, "solver": "fista"},
        "config error: problem has unknown field(s): lambda",
    ),
    "set-unknown-field": (
        {"problem": _feasibility({**BOX2, "center": [0.0, 0.0]}), "solver": "pocs"},
        "config error: set spec has unknown field(s): center",
    ),
    "omega-string": ({"problem": {**_TV, "omega": "0.5"}, "solver": "ppxa"}, "error: omega must be a finite number > 0"),
    "r-strings": ({"problem": {**_TV, "r": ["1", "2", "3"]}, "solver": "ppxa"}, "error: r entries must be real numbers"),
    "weights-string": (
        {"problem": {**TAG_PROBLEMS["lasso"], "weights": "1"}, "solver": "fista"},
        "error: weights entries must be real numbers",
    ),
    "orthant-fractional-dim": (
        {"problem": _feasibility({"type": "orthant", "dim": 2.9}), "solver": "pocs"},
        "error: dim must be an integer, got 2.9",
    ),
    "orthant-bool-dim": (
        {"problem": _feasibility({"type": "orthant", "dim": True}), "solver": "pocs"},
        "error: dim must be an integer, got True",
    ),
    "l1-bool-weight": (
        {"problem": {**_DENOISE, "f": {"kind": "l1", "weight": True}}, "solver": "dykstra_like"},
        "error: weight must be a finite number > 0, got True",
    ),
    "solver-number": ({"problem": TAG_PROBLEMS["lasso"], "solver": 3}, "config error: solver must be a string, got 3"),
    "trace-number": (
        {"problem": TAG_PROBLEMS["lasso"], "solver": "fista", "trace": 1},
        "config error: trace must be a string or null, got 1",
    ),
    "out-number": (
        {"problem": TAG_PROBLEMS["lasso"], "solver": "fista", "out": 2},
        "config error: out must be a string or null, got 2",
    ),
    "seed-fractional": (
        {"problem": TAG_PROBLEMS["lasso"], "solver": "fista", "seed": 1.5},
        "error: seed must be an integer, got 1.5",
    ),
    "seed-negative": ({"problem": TAG_PROBLEMS["lasso"], "solver": "fista", "seed": -1}, "error: seed must be >= 0, got -1"),
    "prox-eval-kind-in-params": (
        ["prox-eval", "--kind", "huber", "--params", '{"kind": "entropy"}', "--x", "1"],
        "config error: --params has unknown field(s): kind",
    ),
    "prox-eval-unknown-param": (
        ["prox-eval", "--kind", "power_abs", "--params", '{"kappa": 1, "q": 2, "omega": 0.5}', "--x", "1"],
        "config error: --params has unknown field(s): omega",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_malformed_field_exits_one_naming_it(tmp_path, capsys, case):
    config, message = MALFORMED_FIELDS[case]
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        config = ["solve", "--config", str(path)]
    assert main(config) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# one valid spec of dimension 2 per set type and function kind, and valid
# values of every scalar kind parameter
VALID_SETS = {
    "box": {"type": "box", "lo": [0.0, None], "hi": [1.0, 2.0]},
    "halfspace": {"type": "halfspace", "a": [1.0, 1.0], "b": 1.0},
    "hyperplane": {"type": "hyperplane", "a": [1.0, -1.0], "b": 0.0},
    "ball": {"type": "ball", "center": [0.0, 0.5], "radius": 1.0},
    "orthant": {"type": "orthant", "dim": 2},
    "affine": {"type": "affine", "A": [[1.0, 1.0]], "b": [1.0]},
}
KIND_PARAMS = {"omega": 1.0, "kappa": 1.0, "k_lo": 1.0, "k_hi": 1.0, "q": 2.0, "tau": 0.5, "alpha": 0.5, "lo": -1.0, "hi": 1.0}


def _scalar_spec(kind: str) -> dict:
    psi = {"kind": "huber", "kappa": 1.0, "omega": 1.0}
    params = {f: psi if f == "psi" else KIND_PARAMS[f] for f in cli._defaults(catalog.SCALAR_KINDS[kind])}
    return {"kind": kind, **params}


@st.composite
def _valid_configs(draw):
    def a_set():
        return VALID_SETS[draw(st.sampled_from(sorted(VALID_SETS)))]

    def a_function():
        kind = draw(st.sampled_from(sorted(cli._FUNCTION_KINDS)))
        spec = {
            "zero": {}, "l1": {"weight": 0.5}, "nonneg": {"dim": 2}, "indicator": {"set": a_set()},
            "separable": {"scalar": _scalar_spec(draw(st.sampled_from(sorted(catalog.SCALAR_KINDS))))},
        }[kind]
        return {"kind": kind, **spec}

    tag = draw(st.sampled_from(sorted(COMPATIBLE_SOLVERS)))
    fields = {
        "lasso": lambda: {"A": [[1.0, 0.5], [0.0, 1.0]], "y": [3.0, 0.5], "weights": [1.0, 0.5]},
        "constrained_least_squares": lambda: {"L": [[1.0, 0.0], [0.5, 1.0]], "y": [2.0, -1.0], "C": a_set()},
        "alternating_projections": lambda: {"C": a_set(), "D": a_set()},
        "best_approximation": lambda: {"C": a_set(), "D": a_set(), "r": [-2.0, 2.0]},
        "denoise": lambda: {"f": a_function(), "g": a_function(), "r": [1.5, -0.5]},
        "tv1d": lambda: {"r": [0.0, 0.1, 1.0, 0.9], "omega": 0.3},
        "feasibility": lambda: {"sets": [a_set() for _ in range(draw(st.integers(1, 3)))]},
    }[tag]()
    return {
        "problem": {"tag": tag, **fields},
        "solver": draw(st.sampled_from(COMPATIBLE_SOLVERS[tag])),
        "schedule": {"gamma": None, "lambda": None, "epsilon": None},
        "stop": {"tol": 1e-8, "max_iter": 5, "objective_stride": 1},
        "seed": 0,
    }


def _paths(node, path=()):
    """The path of every value below ``node``, and whether its parent is a JSON object."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), isinstance(node, dict)
        yield from _paths(value, path + (key,))


BAD_VALUES = (None, True, False, "x", "1", 0.5, 2.5, -1.5, [[1.0, 2.0]], [])


@st.composite
def _mutated_configs(draw):
    doc = copy.deepcopy(draw(_valid_configs()))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        path, in_object = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["drop", "add", "replace"] if in_object else ["add", "replace"]))
        value = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        if action == "drop":
            del parent[path[-1]]
        elif action == "add":
            (parent if in_object else doc)["bogus"] = value
        else:
            parent[path[-1]] = value
    return doc


def test_examples_cover_the_tables():
    assert set(VALID_SETS) == set(cli._SET_TYPES)
    assert set(cli._PROBLEM_TAGS) == set(COMPATIBLE_SOLVERS)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.one_of(_valid_configs(), _mutated_configs()))
def test_any_config_exits_zero_one_or_two(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path), "--max-iter", "5"]) in (0, 1, 2)
