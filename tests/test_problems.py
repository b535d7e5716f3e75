import math
import tracemalloc

import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit import problems, sets
from proxsplit.core import (
    InvalidInputError,
    InvalidParameterError,
    InvalidScheduleError,
    SolveResult,
    check_adjoint,
    firm_nonexpansiveness_violation,
    identity_map,
    matrix_map,
    operator_norm,
)
from proxsplit.problems import (
    build_alternating_projections,
    build_best_approximation,
    build_constrained_least_squares,
    build_denoise,
    build_feasibility,
    build_lasso,
    build_tv1d,
    first_difference,
    lasso_kkt_residual,
    run_instance,
)
from helpers import (
    condat_tv1d,
    dense_pairwise_tv,
    grid_best_approximation_oracle,
    scalar_prox_oracle,
    vi_violation_per_probe,
)
from proxsplit.core import Schedule
from proxsplit.scalar import Bracket
from proxsplit.solvers import StoppingRule

TIGHT = StoppingRule(tol=1e-12, max_iter=100_000)
UNIT_STEPS = Schedule(gamma=1.0, lam=1.0)


class TestConstrainedLeastSquares:
    def test_clamped_identity(self):
        inst = build_constrained_least_squares(
            identity_map(2), [2.0, -1.0], sets.Box(np.zeros(2), np.ones(2))
        )
        res = run_instance(inst, "forward_backward", stop=TIGHT)
        assert np.allclose(res.final_x, [1.0, 0.0], atol=1e-9)
        diag = inst.validator(res)
        assert diag["projected_gradient_residual"] <= 1e-8

    def test_free_constraint_reaches_normal_equations(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        free = sets.Box(np.full(3, -np.inf), np.full(3, np.inf))
        inst = build_constrained_least_squares(matrix_map(A), y, free)
        res = run_instance(inst, "fista", stop=TIGHT)
        assert np.linalg.norm(A.T @ (A @ res.final_x - y)) <= 1e-8

    def test_attainable_data_zero_objective(self):
        A = np.array([[1.0, 0.4], [0.0, 2.0]])
        xbar = np.array([0.3, 0.8])
        inst = build_constrained_least_squares(
            matrix_map(A), A @ xbar, sets.Box(np.zeros(2), np.ones(2))
        )
        res = run_instance(inst, "forward_backward", stop=TIGHT)
        assert inst.validator(res)["objective"] <= 1e-10


class TestLasso:
    def test_identity_soft_threshold(self):
        inst = build_lasso(np.eye(2), [3.0, 0.5], [1.0, 1.0])
        res = run_instance(inst, "forward_backward", stop=TIGHT)
        assert np.allclose(res.final_x, [2.0, 0.0], atol=1e-9)

    def test_large_weights_give_zero(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 3))
        y = rng.standard_normal(4)
        big = np.full(3, float(np.max(np.abs(A.T @ y))) + 1.0)
        inst = build_lasso(A, y, big)
        res = run_instance(inst, "fista", stop=TIGHT)
        assert np.allclose(res.final_x, 0.0, atol=1e-10)

    def test_fixed_instance_kkt_across_solvers(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        inst = build_lasso(A, y, np.full(3, 0.3))
        for tag in ("forward_backward", "fista", "douglas_rachford"):
            res = run_instance(inst, tag, stop=TIGHT)
            assert inst.validator(res)["kkt_residual"] <= 1e-8, tag

    def test_deterministic_rebuild(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        a1 = build_lasso(rng1.standard_normal((5, 3)), rng1.standard_normal(5), [0.2])
        a2 = build_lasso(rng2.standard_normal((5, 3)), rng2.standard_normal(5), [0.2])
        assert a1.components["y"].tobytes() == a2.components["y"].tobytes()
        assert a1.components["A"].to_dense().tobytes() == a2.components["A"].to_dense().tobytes()

    @pytest.mark.parametrize("A", [[], [1.0, 2.0], [[[1.0]]]])
    def test_non_matrix_rejected(self, A):
        with pytest.raises(InvalidParameterError, match="expected a matrix"):
            build_lasso(A, [], [1.0])

    def test_kkt_residual_matches_coordinate_loop(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((6, 8))
        y = rng.standard_normal(6)
        w = rng.uniform(0.1, 1.0, 8)
        # positive, negative, zero and within-kink coordinates
        x = np.array([0.7, -1.2, 0.0, 5e-10, -5e-10, 2e-9, -2e-9, 0.0])
        corr = A.T @ (y - A @ x)
        worst = 0.0
        for ck, wk, xk in zip(corr, w, x):
            if xk > 1e-9:
                worst = max(worst, abs(ck - wk))
            elif xk < -1e-9:
                worst = max(worst, abs(ck + wk))
            else:
                worst = max(worst, max(abs(ck) - wk, 0.0))
        assert lasso_kkt_residual(A, y, w, x) == worst
        assert lasso_kkt_residual(A, y, np.full(8, 1e3), np.zeros(8)) == 0.0

    def test_wide_lasso_keeps_memory_of_the_size_of_a(self):
        # an n x n identity for the sdmm split would keep 72 MB at n = 3000
        rng = np.random.default_rng(3)
        A, y = rng.standard_normal((5, 3000)), rng.standard_normal(5)
        tracemalloc.start()
        try:
            inst = build_lasso(A, y, 0.1)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert inst.components["sdmm_L_list"][1].matrix is None
        assert kept < 2 * 2**20, kept


class TestAlternatingProjections:
    def test_intervals(self):
        inst = build_alternating_projections(sets.Box([0.0], [1.0]), sets.Box([2.0], [3.0]))
        res = run_instance(inst, "forward_backward", UNIT_STEPS, stop=TIGHT)
        assert res.final_x[0] == pytest.approx(1.0, abs=1e-8)
        assert inst.validator(res)["fixed_point_residual"] <= 1e-8

    def test_identical_sets(self):
        C = sets.Ball(np.zeros(2), 1.0)
        inst = build_alternating_projections(C, C)
        res = run_instance(inst, "forward_backward", stop=TIGHT)
        assert C.contains(res.final_x, tol=1e-8)

    def test_two_disks_closed_form(self):
        c1, r1 = np.array([0.0, 0.0]), 1.0
        c2, r2 = np.array([4.0, 3.0]), 1.5
        inst = build_alternating_projections(sets.Ball(c1, r1), sets.Ball(c2, r2))
        res = run_instance(inst, "forward_backward", UNIT_STEPS, stop=TIGHT)
        u = (c2 - c1) / np.linalg.norm(c2 - c1)
        assert np.allclose(res.final_x, c1 + r1 * u, atol=1e-8)

    def test_douglas_rachford_route(self):
        inst = build_alternating_projections(sets.Box([0.0], [1.0]), sets.Box([2.0], [3.0]))
        res = run_instance(inst, "douglas_rachford", stop=TIGHT)
        assert res.final_x[0] == pytest.approx(1.0, abs=1e-8)


BEST_APPROXIMATION_CASES = {  # name: (C, D, r)
    "disk-halfplane": (sets.Ball(np.zeros(2), 1.0), sets.Halfspace(np.array([-1.0, 0.0]), 0.0), np.array([-2.0, 2.0])),
    "box-ball-5": (sets.Box(np.zeros(5), np.full(5, 2.0)), sets.Ball(np.full(5, 1.5), 1.2), np.array([3.0, -1.0, 2.5, 0.0, 4.0])),
    "affine-orthant-4": (
        sets.AffineSubspace(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 2.0]]), [1.0, 0.5]),
        sets.orthant(4),
        np.array([-1.0, 2.0, 0.5, -0.3]),
    ),
}


class TestBestApproximation:
    @pytest.mark.parametrize("name", list(BEST_APPROXIMATION_CASES))
    def test_vi_violation_equals_the_per_probe_loop(self, name):
        C, D, r = BEST_APPROXIMATION_CASES[name]
        inst = build_best_approximation(C, D, r)
        solved = run_instance(inst, "dykstra_like", stop=StoppingRule(tol=1e-10, max_iter=2000)).final_x
        violations = []
        for x in (solved, solved + 0.3 * (solved - r), C.project(r)):  # the answer, and points past it
            diag = inst.validator(SolveResult(final_x=x, converged=False, iterations=0, records=()))
            violations.append(diag["vi_violation"])
            assert diag["vi_violation"] == vi_violation_per_probe(C, D, r, x)
            assert (diag["distance_C"], diag["distance_D"]) == (C.distance(x), D.distance(x))
        assert violations[0] <= 1e-8 < violations[1]

    def test_halfplane_pair(self):
        C = sets.Halfspace(np.array([1.0, 0.0]), 1.0)
        D = sets.Halfspace(np.array([0.0, 1.0]), 1.0)
        inst = build_best_approximation(C, D, [2.0, 2.0])
        res = run_instance(inst, "dykstra_like", stop=TIGHT)
        assert np.allclose(res.final_x, [1.0, 1.0], atol=1e-9)
        diag = inst.validator(res)
        assert diag["distance_C"] <= 1e-9 and diag["distance_D"] <= 1e-9
        assert diag["vi_violation"] <= 1e-8

    def test_interior_reference_unchanged(self):
        C = sets.Ball(np.zeros(2), 2.0)
        D = sets.Halfspace(np.array([0.0, 1.0]), 5.0)
        r = np.array([0.3, -0.4])
        inst = build_best_approximation(C, D, r)
        res = run_instance(inst, "dykstra_like", stop=TIGHT)
        assert np.allclose(res.final_x, r, atol=1e-10)

    def test_quarter_disk_against_grid_oracle(self):
        C = sets.Ball(np.zeros(2), 1.0)
        D = sets.Halfspace(np.array([-1.0, 0.0]), 0.0)  # x1 >= 0
        r = np.array([-2.0, 2.0])
        inst = build_best_approximation(C, D, r)
        res = run_instance(inst, "dykstra_like", stop=TIGHT)
        oracle = grid_best_approximation_oracle(C, D, r, halfwidth=1.5)
        assert np.max(np.abs(res.final_x - oracle)) <= 1e-4
        assert np.allclose(res.final_x, [0.0, 1.0], atol=1e-8)

    def test_parallel_route_agrees(self):
        C = sets.Ball(np.zeros(2), 1.0)
        D = sets.Halfspace(np.array([-1.0, 0.0]), 0.0)
        r = np.array([-2.0, 2.0])
        inst = build_best_approximation(C, D, r)
        a = run_instance(inst, "dykstra_like", stop=TIGHT)
        b = run_instance(inst, "parallel_dykstra", stop=TIGHT)
        assert np.max(np.abs(a.final_x - b.final_x)) <= 1e-8


class TestDenoise:
    def test_l1_only_soft_threshold(self):
        r = np.array([3.0, -0.5, 1.2])
        inst = build_denoise(cat.weighted_l1(np.ones(3)), cat.zero_fn(3), r)
        res = run_instance(inst, "dykstra_like", stop=TIGHT)
        expected = np.sign(r) * np.maximum(np.abs(r) - 1.0, 0.0)
        assert np.allclose(res.final_x, expected, atol=1e-9)
        assert inst.validator(res)["prox_certificate"] <= 1e-9

    def test_both_zero_identity(self):
        r = np.array([0.4, -0.9])
        inst = build_denoise(cat.zero_fn(2), cat.zero_fn(2), r)
        res = run_instance(inst, "dykstra_like", stop=TIGHT)
        assert np.allclose(res.final_x, r, atol=1e-12)

    def test_parallel_route_matches_dykstra(self):
        r = np.array([3.0, -0.5, 1.2])
        inst = build_denoise(cat.weighted_l1(np.ones(3)), cat.zero_fn(3), r)
        a = run_instance(inst, "dykstra_like", stop=TIGHT)
        b = run_instance(inst, "parallel_dykstra", stop=TIGHT)
        assert np.max(np.abs(a.final_x - b.final_x)) <= 1e-9

    def test_nonneg_l1_positive_part_threshold(self):
        r = np.array([2.0, -1.0, 0.5, 1.4])
        omega = 0.8
        inst = build_denoise(
            sets.indicator(sets.orthant(4)), cat.weighted_l1(np.full(4, omega)), r
        )
        res = run_instance(inst, "dykstra_like", stop=TIGHT)
        for rk, xk in zip(r, res.final_x):
            phi = lambda p: omega * abs(p) + (0.0 if p >= 0 else math.inf)
            ref = scalar_prox_oracle(phi, float(rk), Bracket(-1.0, abs(rk) + 1.0), tol=1e-13)
            assert xk == pytest.approx(ref, abs=1e-7)
            assert xk == pytest.approx(max(rk - omega, 0.0), abs=1e-9)


class TestTv1d:
    def test_constant_signal_unchanged(self):
        r = np.full(6, 1.7)
        inst = build_tv1d(r, 0.5)
        res = run_instance(inst, "dual_forward_backward", stop=TIGHT)
        assert np.allclose(res.final_x, r, atol=1e-9)

    def test_step_just_past_the_exact_bound_is_rejected(self):
        # 2/||L||^2 - eps = 0.499123 at n = 100; an under-estimated norm lets 0.499351 pass
        inst = build_tv1d(_piecewise_signal(np.random.default_rng(100), 100), 1.0)
        with pytest.raises(InvalidScheduleError, match="gamma=0.499351"):
            run_instance(inst, "dual_forward_backward", schedule=Schedule(gamma=0.499351, epsilon=1e-3))
        res = run_instance(inst, "dual_forward_backward", schedule=Schedule(gamma=0.4991, epsilon=1e-3))
        assert res.converged

    def test_two_point_large_omega_flattens_to_mean(self):
        r = np.array([0.0, 2.0])
        inst = build_tv1d(r, 5.0)  # omega >= |gap|/2 flattens completely
        for tag in ("dual_forward_backward", "ppxa"):
            res = run_instance(inst, tag, stop=TIGHT)
            assert np.allclose(res.final_x, [1.0, 1.0], atol=1e-7), tag

    def test_cross_encoding_agreement_length8(self):
        rng = np.random.default_rng(8)
        r = np.concatenate([np.zeros(4), np.ones(4)]) + 0.05 * rng.standard_normal(8)
        inst = build_tv1d(r, 0.3)
        res_dual = run_instance(inst, "dual_forward_backward", stop=TIGHT)
        res_ppxa = run_instance(inst, "ppxa", stop=TIGHT)
        assert np.max(np.abs(res_dual.final_x - res_ppxa.final_x)) <= 1e-5
        diag = inst.validator(res_dual)
        assert diag["stationarity"] <= 1e-7
        assert diag["dual_bound"] <= 1e-7
        assert diag["alignment"] <= 1e-6

    def test_pairwise_encoding_objective_matches(self):
        # the two pairwise terms plus nothing else reproduce omega * TV
        rng = np.random.default_rng(3)
        r = rng.standard_normal(7)
        inst = build_tv1d(r, 0.4)
        f_even, f_odd, _ = inst.components["ppxa"]["f_list"]
        x = rng.standard_normal(7)
        tv = float(np.sum(np.abs(np.diff(x))))
        assert f_even.eval(x) + f_odd.eval(x) == pytest.approx(0.4 * tv, abs=1e-10)

    def test_alignment_matches_coordinate_loop(self):
        rng = np.random.default_rng(21)
        r = rng.standard_normal(9)
        omega = 0.35
        inst = build_tv1d(r, omega)
        # flat runs, gaps just below and above the 1e-7 cut, and jumps of both signs
        x = np.array([0.2, 0.2, 0.2 + 5e-8, 0.2 + 5e-8 + 2e-7, 1.1, 1.1, -0.4, -0.4, 0.3])
        # the least-squares dual: the partial sums of r - x projected off the constants
        v = r - x
        u = np.cumsum(np.mean(v) - v)[:-1]
        worst = 0.0
        for uk, gk in zip(u, np.diff(x)):
            if abs(gk) > 1e-7:
                worst = max(worst, abs(uk - omega * np.sign(gk)))
        assert worst > 0.0
        result = SolveResult(final_x=x, converged=False, iterations=0, records=())
        assert inst.validator(result)["alignment"] == worst
        flat = SolveResult(final_x=np.full(9, 0.5), converged=False, iterations=0, records=())
        assert inst.validator(flat)["alignment"] == 0.0

    @pytest.mark.parametrize("n", (2, 3, 7, 8, 120))
    @pytest.mark.parametrize("offset", (0, 1))
    def test_pairwise_closed_form_matches_dense_basis(self, n, offset):
        omega = 0.7
        closed = problems._pairwise_tv(n, omega, offset)
        dense = dense_pairwise_tv(n, omega, offset)
        rng = np.random.default_rng(10 * n + offset)
        for gamma in (1e-3, 0.25, 1.0, 4.0):
            for _ in range(4):
                x = 3.0 * rng.standard_normal(n)
                gap = np.max(np.abs(closed.prox(gamma, x) - dense.prox(gamma, x)))
                assert gap <= 1e-12 * (1.0 + np.max(np.abs(x))), (gamma, gap)
                assert abs(closed.eval(x) - dense.eval(x)) <= 1e-12 * abs(dense.eval(x))

    @pytest.mark.parametrize("n", (2, 3, 8, 9, 120, 121))
    @pytest.mark.parametrize("offset", (0, 1))
    def test_pairwise_prox_keeps_means_and_soft_thresholds_gaps(self, n, offset):
        # per pair (a, b): mean (a + b)/2 kept, gap b - a soft-thresholded to
        # [-2 gamma omega, 2 gamma omega]; within 4 ulp of max(|a|, |b|)
        omega = 0.7
        f = problems._pairwise_tv(n, omega, offset)
        rng = np.random.default_rng(100 * n + offset)
        end = offset + 2 * ((n - offset) // 2)
        for gamma in (1e-3, 0.25, 1.0, 4.0):
            for scale in (1e-3, 1.0, 1e3):
                x = scale * rng.standard_normal(n)
                x[rng.random(n) < 0.2] = 0.0
                kept = x.copy()
                p = f.prox(gamma, x)
                assert x.tobytes() == kept.tobytes()
                assert p is not x
                assert p[:offset].tobytes() == x[:offset].tobytes()
                assert p[end:].tobytes() == x[end:].tobytes()
                for k in range(offset, end, 2):
                    a, b = float(x[k]), float(x[k + 1])
                    mean, gap = 0.5 * (a + b), b - a
                    half = 0.5 * math.copysign(max(abs(gap) - 2.0 * gamma * omega, 0.0), gap)
                    tol = 4.0 * np.spacing(max(abs(a), abs(b)))
                    assert abs(p[k] - (mean - half)) <= tol, (k, gamma, scale)
                    assert abs(p[k + 1] - (mean + half)) <= tol, (k, gamma, scale)

    @pytest.mark.parametrize("n", (2, 7, 8, 120))
    @pytest.mark.parametrize("offset", (0, 1))
    def test_pairwise_prox_is_firmly_nonexpansive(self, n, offset):
        f = problems._pairwise_tv(n, 0.7, offset)
        rng = np.random.default_rng(10 * n + offset)
        for gamma in (1e-3, 0.25, 1.0, 4.0):
            for _ in range(10):
                x, y = 3.0 * rng.standard_normal((2, n))
                assert firm_nonexpansiveness_violation(f, x, y, gamma) <= 1e-12

    @pytest.mark.parametrize("n", (2, 5, 9, 40))
    def test_validator_matches_least_squares_definition(self, n):
        rng = np.random.default_rng(n)
        r = rng.standard_normal(n) + np.where(np.arange(n) < n // 2, 0.0, 1.5)
        omega = 0.3
        inst = build_tv1d(r, omega)
        xs = [run_instance(inst, tag, stop=TIGHT).final_x for tag in inst.solver_tags]
        xs += [r, np.zeros(n), r + 0.2 * rng.standard_normal(n)]
        for x in xs:
            got = inst.validator(SolveResult(final_x=x, converged=False, iterations=0, records=()))
            want = _lstsq_tv_diagnostics(r, omega, x)
            assert got.keys() == want.keys()
            for key, value in want.items():
                # residuals on the scale of the data: relative above 1, absolute below
                assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), (key, got[key], value)

    @pytest.mark.parametrize("n", (8, 120))
    def test_solvers_match_condat(self, n):
        r = _piecewise_signal(np.random.default_rng(n), n)
        inst = build_tv1d(r, 1.0)
        x_ref = condat_tv1d(r, 1.0)
        for tag in inst.solver_tags:
            res = run_instance(inst, tag, stop=TIGHT)
            assert res.converged, tag
            assert np.max(np.abs(res.final_x - x_ref)) <= 1e-6, tag

    def test_condat_at_scale_passes_validator(self):
        n = 100_000
        r = _piecewise_signal(np.random.default_rng(5), n)
        inst = build_tv1d(r, 1.0)
        x = condat_tv1d(r, 1.0)
        diag = inst.validator(SolveResult(final_x=x, converged=True, iterations=0, records=()))
        assert np.any(np.abs(np.diff(x)) > 1e-7)  # the answer has jumps to align
        for key, value in diag.items():
            assert value <= 1e-9, (key, value)

    @pytest.mark.filterwarnings("ignore:operator_norm Lanczos iteration:RuntimeWarning")
    def test_memory_linear_in_length(self):
        # a dense (n-1) x n difference and two n x n pairwise bases would take ~96 MB
        r = _piecewise_signal(np.random.default_rng(6), 2000)
        tracemalloc.start()
        try:
            inst = build_tv1d(r, 1.0)
            for tag in inst.solver_tags:
                run_instance(inst, tag, stop=StoppingRule(tol=1e-12, max_iter=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak


def _piecewise_signal(rng, n: int) -> np.ndarray:
    """Pieces of 4 to 8 samples at random levels, plus small Gaussian noise."""
    lengths = rng.integers(4, 9, size=n // 4 + 1)
    levels = np.cumsum(rng.uniform(1.0, 2.0, lengths.size) * rng.choice([-1.0, 1.0], lengths.size))
    return np.repeat(levels, lengths)[:n] + 0.1 * rng.standard_normal(n)


def _lstsq_tv_diagnostics(r, omega: float, x) -> dict:
    """The tv1d validator's keys by their dense definition: u the least-squares
    solution of D^T u = r - x for the dense difference matrix D."""
    D = np.diff(np.eye(r.size), axis=0)
    v = r - x
    u, *_ = np.linalg.lstsq(D.T, v, rcond=None)
    gaps = D @ x
    return {
        "stationarity": float(np.linalg.norm(D.T @ u - v)),
        "dual_bound": float(max(np.max(np.abs(u)) - omega, 0.0)),
        "alignment": float(np.max(np.where(np.abs(gaps) > 1e-7, np.abs(u - omega * np.sign(gaps)), 0.0))),
    }


class TestFeasibility:
    def test_pocs_on_intersecting_sets(self):
        inst = build_feasibility(
            [sets.Box(np.zeros(2), np.ones(2)), sets.Halfspace(np.array([1.0, 1.0]), 1.0)]
        )
        res = run_instance(inst, "pocs", stop=TIGHT)
        assert res.converged
        assert inst.validator(res)["max_distance"] <= 1e-9


def _default_instances():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    return [
        build_lasso(A, y, np.full(3, 0.3)),
        build_constrained_least_squares(
            identity_map(2), [2.0, -1.0], sets.Box(np.zeros(2), np.ones(2))
        ),
        build_alternating_projections(sets.Box([0.0], [1.0]), sets.Box([2.0], [3.0])),
        build_best_approximation(
            sets.Ball(np.zeros(2), 1.0), sets.Halfspace(np.array([-1.0, 0.0]), 0.0), [-2.0, 2.0]
        ),
        build_denoise(cat.weighted_l1(np.ones(3)), cat.zero_fn(3), [3.0, -0.5, 1.2]),
        build_tv1d(np.array([0.0, 0.1, 1.0, 0.9, 1.1]), 0.3),
        build_feasibility(
            [sets.Box(np.zeros(2), np.ones(2)), sets.Halfspace(np.array([1.0, 1.0]), 1.0)]
        ),
    ]


DIAGNOSTIC_LIMITS = {
    "kkt_residual": 1e-8,
    "projected_gradient_residual": 1e-8,
    "objective": np.inf,
    "fixed_point_residual": 1e-8,
    "distance_C": 1e-8,
    "distance_D": 1e-8,
    "vi_violation": 1e-7,
    "prox_certificate": 1e-9,
    "stationarity": 1e-6,
    "dual_bound": 1e-7,
    "alignment": 1e-6,
    "max_distance": 1e-8,
}


@pytest.mark.parametrize("inst", _default_instances(), ids=lambda i: i.tag)
def test_validators_pass_for_every_recommended_solver_at_defaults(inst):
    for tag in inst.solver_tags:
        res = run_instance(inst, tag)  # default schedule and stopping rule
        assert res.converged, (inst.tag, tag)
        for key, value in inst.validator(res).items():
            assert value <= DIAGNOSTIC_LIMITS[key], (inst.tag, tag, key, value)


class TestDispatch:
    def test_incompatible_solver_rejected(self):
        inst = build_lasso(np.eye(2), [1.0, 1.0], [0.5])
        with pytest.raises(InvalidInputError) as err:
            run_instance(inst, "pocs")
        assert "compatible solvers" in str(err.value)

    def test_first_difference_shape(self):
        D = first_difference(5)
        assert D.rows == 4 and D.cols == 5
        x = np.array([1.0, 2.0, 4.0, 4.0, 3.0])
        assert np.allclose(D.apply(x), [1.0, 2.0, 0.0, -1.0])


@pytest.mark.parametrize("n", (2, 3, 9, 32, 120))
class TestFirstDifferenceMatchesDense:
    """first_difference(n) against the dense (n-1) x n matrix: same bytes in
    both directions, so the step bounds derived from it cannot move."""

    def test_apply_and_adjoint_bytes(self, n):
        M = np.diff(np.eye(n), axis=0)
        D = first_difference(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = rng.standard_normal(n)
            u = rng.standard_normal(n - 1)
            assert D.apply(x).tobytes() == (M @ x).tobytes()
            assert D.adjoint(u).tobytes() == (M.T @ u).tobytes()

    def test_to_dense_exact(self, n):
        assert np.array_equal(first_difference(n).to_dense(), np.diff(np.eye(n), axis=0))

    def test_adjoint_pair(self, n):
        assert check_adjoint(first_difference(n)) <= 1e-10

    def test_operator_norm_exact(self, n):
        M = np.diff(np.eye(n), axis=0)
        assert operator_norm(first_difference(n)) == operator_norm(matrix_map(M))


@pytest.mark.parametrize("n", (2, 3, 32, 100, 120, 129, 200, 500))
def test_first_difference_norm_is_exact(n):
    # D^T D is the path-graph Laplacian, whose largest eigenvalue is 2 + 2cos(pi/n)
    assert abs(operator_norm(first_difference(n)) - 2.0 * math.cos(math.pi / (2 * n))) <= 1e-14


# the tag -> solvers table as it stands; cli_table in perfbench draws its
# seeded inputs in this order
EXPECTED_TABLE = {
    "lasso": ("forward_backward", "forward_backward_const", "fista", "douglas_rachford", "ppxa", "sdmm"),
    "constrained_least_squares": ("forward_backward", "forward_backward_const", "fista"),
    "alternating_projections": ("forward_backward", "douglas_rachford"),
    "best_approximation": ("dykstra_like", "parallel_dykstra"),
    "denoise": ("dykstra_like", "parallel_dykstra"),
    "tv1d": ("dual_forward_backward", "ppxa"),
    "feasibility": ("pocs",),
}
SOLVER_NAMES = (
    "pocs", "forward_backward", "forward_backward_const", "fista", "douglas_rachford", "dykstra_like",
    "dual_forward_backward", "admm", "ppxa", "parallel_dykstra", "sdmm",
)


class TestSolverTable:
    def test_table_literal_in_order(self):
        assert list(problems._COMPATIBLE_SOLVERS.items()) == list(EXPECTED_TABLE.items())

    def test_solver_tags_match_table_for_every_builder(self):
        instances = _default_instances()
        assert sorted(inst.tag for inst in instances) == sorted(EXPECTED_TABLE)
        for inst in instances:
            assert inst.solver_tags == EXPECTED_TABLE[inst.tag]
            assert inst.solver_tags is problems._COMPATIBLE_SOLVERS[inst.tag]

    def test_solver_tags_read_only(self):
        inst = _default_instances()[0]
        with pytest.raises(AttributeError):
            inst.solver_tags = ("pocs",)

    def test_every_pair_outside_table_rejected(self):
        for inst in _default_instances():
            for name in SOLVER_NAMES + ("bogus",):
                if name in EXPECTED_TABLE[inst.tag]:
                    continue
                with pytest.raises(InvalidInputError) as err:
                    run_instance(inst, name)
                message = str(err.value)
                assert "compatible solvers: " + ", ".join(EXPECTED_TABLE[inst.tag]) in message
