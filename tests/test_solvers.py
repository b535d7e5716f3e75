import math

import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit import sets
from proxsplit.core import (
    InvalidInputError,
    InvalidParameterError,
    ProxFn,
    InvalidScheduleError,
    PreconditionError,
    Schedule,
    SmoothFn,
    UnsupportedFunctionError,
    identity_map,
    matrix_map,
    norm,
    pow2,
)
from proxsplit.problems import (
    first_difference,
    lasso_kkt_residual,
    least_squares_smooth,
    set_distance_smooth,
)
from proxsplit.solvers import (
    QuadraticTerm,
    StoppingRule,
    admm,
    douglas_rachford,
    dr_two_level_residual,
    dual_forward_backward,
    dykstra_like,
    fb_fixed_point_residual,
    fista,
    forward_backward,
    forward_backward_const,
    parallel_dykstra,
    pocs,
    ppxa,
    prox_l,
    sdmm,
    _Run,
)

TIGHT = StoppingRule(tol=1e-12, max_iter=50_000)


def interval_problem():
    # min over [0,1] of half the squared distance to [2,3]; solution 1
    C = sets.Box([0.0], [1.0])
    D = sets.Box([2.0], [3.0])
    return sets.indicator(C), set_distance_smooth(D)


def lasso_fixture(seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((5, 3))
    xtrue = np.array([1.5, 0.0, -0.5])
    y = A @ xtrue + 0.1 * rng.standard_normal(5)
    w = np.full(3, 0.4)
    return A, y, w


class TestPocs:
    def test_two_intervals(self):
        C1 = sets.Box([0.0], [1.0])
        C2 = sets.Box([0.5], [2.0])
        res = pocs([C1, C2], x0=[5.0])
        assert res.converged
        assert res.final_x[0] == pytest.approx(1.0, abs=1e-9)

    def test_single_set(self):
        res = pocs([sets.Box([0.0], [1.0])], x0=[7.0])
        assert res.converged
        assert res.iterations <= 2
        assert res.final_x[0] == pytest.approx(1.0)

    def test_disjoint_hyperplanes_do_not_converge(self):
        H1 = sets.Hyperplane(np.array([1.0, 0.0]), 0.0)
        H2 = sets.Hyperplane(np.array([1.0, 0.0]), 1.0)
        res = pocs([H1, H2], x0=[5.0, 3.0], stop=StoppingRule(tol=1e-12, max_iter=300))
        assert not res.converged

    def test_empty_list_rejected(self):
        from proxsplit.core import InvalidInputError

        with pytest.raises(InvalidInputError):
            pocs([], x0=[0.0])


class TestForwardBackward:
    def test_interval_alternating_projections(self):
        f1, f2 = interval_problem()
        res = forward_backward(f1, f2, Schedule(gamma=1.0, lam=1.0), x0=[5.0], stop=TIGHT)
        assert res.converged
        assert res.final_x[0] == pytest.approx(1.0, abs=1e-8)

    def test_gradient_method(self):
        a = np.array([2.0, -1.0, 0.5])
        f1 = cat.zero_fn(3)
        f2 = least_squares_smooth(identity_map(3), a)
        res = forward_backward(f1, f2, stop=TIGHT)
        assert np.allclose(res.final_x, a, atol=1e-9)

    def test_proximal_point(self):
        # f2 = 0 with formal beta = 1: pure prox iterations on |.|
        f1 = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)
        zero = SmoothFn(dim=1, value=lambda x: 0.0, grad_impl=lambda x: np.zeros(1), lipschitz=1.0, name="zero")
        res = forward_backward(f1, zero, x0=[4.0], stop=TIGHT)
        assert res.converged
        assert abs(res.final_x[0]) <= 1e-9

    def test_lasso_kkt(self):
        A, y, w = lasso_fixture()
        f1 = cat.weighted_l1(w)
        f2 = least_squares_smooth(matrix_map(A), y)
        res = forward_backward(f1, f2, stop=TIGHT)
        assert res.converged
        assert lasso_kkt_residual(A, y, w, res.final_x) <= 1e-8

    def test_gamma_out_of_range_raises_before_iterating(self):
        f1, f2 = interval_problem()
        with pytest.raises(InvalidScheduleError) as err:
            forward_backward(f1, f2, Schedule(gamma=5.0))  # beta = 1 -> bound < 2
        assert "admissible interval" in str(err.value)

    def test_lambda_out_of_range(self):
        f1, f2 = interval_problem()
        with pytest.raises(InvalidScheduleError):
            forward_backward(f1, f2, Schedule(lam=1.2))

    def test_gamma_sequence_checked_in_full(self):
        f1, f2 = interval_problem()
        with pytest.raises(InvalidScheduleError):
            forward_backward(f1, f2, Schedule(gamma=[1.0, 1.0, 9.0]))

    def test_fixed_point_residual_at_termination(self):
        f1, f2 = interval_problem()
        stop = StoppingRule(tol=1e-11, max_iter=100_000)
        res = forward_backward(f1, f2, Schedule(gamma=1.0, lam=1.0), x0=[5.0], stop=stop)
        gamma = res.aux["gamma"]
        assert fb_fixed_point_residual(f1, f2, gamma, res.final_x) <= 10 * stop.tol

    def test_objective_monotone_for_unrelaxed_quadratic(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        y = rng.standard_normal(4)
        f1 = cat.weighted_l1(np.full(4, 0.3))
        f2 = least_squares_smooth(matrix_map(A), y)
        res = forward_backward(f1, f2, Schedule(lam=1.0), stop=StoppingRule(tol=1e-13, max_iter=3000))
        objs = [r.objective for r in res.records]
        assert all(b <= a + 1e-11 for a, b in zip(objs, objs[1:]))

    def test_objective_finite_after_first_record(self):
        f1, f2 = interval_problem()
        res = forward_backward(f1, f2, Schedule(gamma=1.0, lam=1.0), x0=[5.0], stop=TIGHT)
        assert all(np.isfinite(r.objective) for r in res.records)

    def test_trace_shape(self):
        f1, f2 = interval_problem()
        res = forward_backward(f1, f2, x0=[5.0], stop=TIGHT)
        assert res.iterations == len(res.records)
        assert [r.iteration for r in res.records] == list(range(1, res.iterations + 1))
        assert all(r.elapsed_ns >= 0 for r in res.records)


class TestForwardBackwardConst:
    def test_interval_with_overrelaxation(self):
        f1, f2 = interval_problem()
        res = forward_backward_const(f1, f2, Schedule(lam=1.4), x0=[5.0], stop=TIGHT)
        assert res.converged
        assert res.final_x[0] == pytest.approx(1.0, abs=1e-8)

    def test_lambda_one_matches_forward_backward(self):
        A, y, w = lasso_fixture(3)
        f1 = cat.weighted_l1(w)
        f2 = least_squares_smooth(matrix_map(A), y)
        stop = StoppingRule(tol=1e-16, max_iter=25)
        beta = f2.lipschitz
        r1 = forward_backward(f1, f2, Schedule(gamma=1.0 / beta, lam=1.0), stop=stop)
        r2 = forward_backward_const(f1, f2, Schedule(lam=1.0), stop=stop)
        assert r1.final_x.tobytes() == r2.final_x.tobytes()
        assert [r.objective for r in r1.records] == [r.objective for r in r2.records]
        assert [r.residual for r in r1.records] == [r.residual for r in r2.records]

    def test_lasso_same_solution(self):
        A, y, w = lasso_fixture()
        f1 = cat.weighted_l1(w)
        f2 = least_squares_smooth(matrix_map(A), y)
        r1 = forward_backward(f1, f2, stop=TIGHT)
        r2 = forward_backward_const(f1, f2, stop=TIGHT)
        assert np.max(np.abs(r1.final_x - r2.final_x)) <= 1e-6

    def test_epsilon_range(self):
        f1, f2 = interval_problem()
        with pytest.raises(InvalidScheduleError):
            forward_backward_const(f1, f2, Schedule(epsilon=0.8))


class TestFista:
    def test_momentum_constant(self):
        t1 = 0.5 * (1.0 + math.sqrt(5.0))
        assert t1 == pytest.approx(1.6180339887, abs=1e-9)

    def test_matches_literal_algorithm_transcription(self):
        A, y, w = lasso_fixture(5)
        f1 = cat.weighted_l1(w)
        f2 = least_squares_smooth(matrix_map(A), y)
        beta = f2.lipschitz
        res = fista(f1, f2, stop=StoppingRule(tol=1e-16, max_iter=12))
        # independent transcription of the algorithm box
        x = np.zeros(3)
        z = x.copy()
        t = 1.0
        for _ in range(12):
            yv = z - (1.0 / beta) * f2.grad(z)
            x_new = f1.prox(1.0 / beta, yv)
            t_new = 0.5 * (1.0 + math.sqrt(4.0 * t * t + 1.0))
            lam = 1.0 + (t - 1.0) / t_new
            z = x + lam * (x_new - x)
            x, t = x_new, t_new
        assert np.max(np.abs(res.final_x - x)) <= 1e-14

    def test_objective_bound_simple_quadratic(self):
        f1 = cat.zero_fn(1)
        f2 = least_squares_smooth(identity_map(1), np.zeros(1))
        x0 = np.array([1.0])
        res = fista(f1, f2, x0=x0, stop=StoppingRule(tol=1e-16, max_iter=100))
        beta = f2.lipschitz
        for rec in res.records:
            bound = 2.0 * beta * 1.0 / (rec.iteration + 1) ** 2
            assert rec.objective <= bound + 1e-12

    def test_lasso_objective_matches_forward_backward(self):
        A, y, w = lasso_fixture()
        f1 = cat.weighted_l1(w)
        f2 = least_squares_smooth(matrix_map(A), y)
        r1 = fista(f1, f2, stop=TIGHT)
        r2 = forward_backward(f1, f2, stop=TIGHT)
        o1 = f1.eval(r1.final_x) + f2.eval(r1.final_x)
        o2 = f1.eval(r2.final_x) + f2.eval(r2.final_x)
        assert abs(o1 - o2) <= 1e-8


class TestDouglasRachford:
    def test_interval_instance(self):
        C = sets.Box([0.0], [1.0])
        D = sets.Box([2.0], [3.0])
        f1 = sets.indicator(C)
        f2 = cat.squared_distance(sets.indicator(D))
        res = douglas_rachford(f1, f2, gamma=1.0, y0=[5.0], stop=TIGHT)
        assert res.converged
        assert res.final_x[0] == pytest.approx(1.0, abs=1e-8)

    def test_same_indicator_twice(self):
        C = sets.Ball(np.zeros(2), 1.0)
        f = sets.indicator(C)
        res = douglas_rachford(f, f, gamma=1.0, y0=[3.0, -4.0], stop=TIGHT)
        assert C.contains(res.final_x, tol=1e-8)

    def test_lasso_matches_fista(self):
        A, y, w = lasso_fixture()
        f1 = cat.weighted_l1(w)
        f2p = cat.quadratic(matrix_map(A), y, 1.0)
        f2 = least_squares_smooth(matrix_map(A), y)
        r_dr = douglas_rachford(f1, f2p, gamma=1.0, stop=TIGHT)
        r_f = fista(f1, f2, stop=TIGHT)
        assert np.max(np.abs(r_dr.final_x - r_f.final_x)) <= 1e-6

    def test_two_level_residual_at_termination(self):
        C = sets.Box([0.0], [1.0])
        D = sets.Box([2.0], [3.0])
        f1 = sets.indicator(C)
        f2 = cat.squared_distance(sets.indicator(D))
        stop = StoppingRule(tol=1e-11, max_iter=100_000)
        res = douglas_rachford(f1, f2, gamma=1.0, y0=[5.0], stop=stop)
        assert dr_two_level_residual(f1, f2, res.aux["gamma"], res.aux["y"]) <= 10 * stop.tol

    def test_invalid_lambda(self):
        f1, _ = interval_problem()
        with pytest.raises(InvalidScheduleError):
            douglas_rachford(f1, f1, schedule=Schedule(lam=2.5))
        # the lambda = 2 limiting case needs extra assumptions and is excluded
        with pytest.raises(InvalidScheduleError):
            douglas_rachford(f1, f1, schedule=Schedule(lam=2.0))

    def test_invalid_gamma(self):
        f1, _ = interval_problem()
        with pytest.raises(InvalidParameterError):
            douglas_rachford(f1, f1, gamma=-1.0)


class TestDykstraLike:
    def test_best_approximation_halfplanes(self):
        C = sets.Halfspace(np.array([1.0, 0.0]), 1.0)  # x1 <= 1
        D = sets.Halfspace(np.array([0.0, 1.0]), 1.0)  # x2 <= 1
        res = dykstra_like(sets.indicator(C), sets.indicator(D), [2.0, 2.0], stop=TIGHT)
        assert res.converged
        assert np.allclose(res.final_x, [1.0, 1.0], atol=1e-9)

    def test_zero_g_gives_prox_f(self):
        f = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2)
        res = dykstra_like(f, cat.zero_fn(2), [3.0, -0.2], stop=TIGHT)
        assert np.allclose(res.final_x, [2.0, 0.0], atol=1e-9)

    def test_two_quadratics(self):
        f = cat.quadratic_deviation(np.zeros(2), 1.0)  # ||x||^2/2... relative to 0
        r = np.array([3.0, -6.0])
        res = dykstra_like(f, f, r, stop=TIGHT)
        assert np.allclose(res.final_x, r / 3.0, atol=1e-9)


class TestDualForwardBackward:
    def test_identity_zero_g(self):
        h = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2)
        res = dual_forward_backward(h, cat.zero_fn(2), identity_map(2), [3.0, -0.5], stop=TIGHT)
        assert np.allclose(res.final_x, [2.0, 0.0], atol=1e-9)

    def test_tv_shrinks_step(self):
        r = np.concatenate([np.zeros(4), np.ones(4)])
        n = r.size
        L = first_difference(n)
        g = cat.weighted_l1(np.full(n - 1, 0.1))
        res = dual_forward_backward(cat.zero_fn(n), g, L, r, stop=TIGHT)
        x = res.final_x
        # shrunk step: still monotone, reduced jump, mean preserved
        assert np.all(np.diff(x) >= -1e-9)
        assert x[4] - x[3] < 1.0
        assert np.mean(x) == pytest.approx(np.mean(r), abs=1e-9)

    def test_cross_check_against_douglas_rachford(self):
        # tight-frame analysis operator so DR has a closed prox for g o L
        rng = np.random.default_rng(7)
        theta = 0.83
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        L = matrix_map(math.sqrt(2.0) * R, tight_frame_nu=2.0)
        g = cat.weighted_l1(np.full(2, 0.3))
        h = cat.separable(cat.IntervalSupport(-0.5, 0.5), dim=2)
        r = rng.standard_normal(2) * 2
        res_dfb = dual_forward_backward(h, g, L, r, stop=TIGHT)
        # the same problem is prox_{h + g o L}(r); with a tight frame the
        # composed prox is closed form, so the Dykstra-like algorithm is an
        # exact independent oracle
        f2 = cat.tight_frame_compose(g, L)
        res_dyk = dykstra_like(h, f2, r, stop=TIGHT)
        assert np.max(np.abs(res_dfb.final_x - res_dyk.final_x)) <= 1e-6

    def test_nonnegative_output(self):
        r = np.array([-1.0, 2.0, -0.5, 1.5])
        n = r.size
        L = first_difference(n)
        g = cat.weighted_l1(np.full(n - 1, 0.2))
        h = sets.indicator(sets.orthant(n))
        res = dual_forward_backward(h, g, L, r, stop=TIGHT)
        assert np.all(res.final_x >= -1e-12)


class TestProxL:
    def test_least_squares(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 3))
        v = rng.standard_normal(5)
        x = prox_l(None, matrix_map(A), v)
        assert np.linalg.norm(A.T @ A @ x - A.T @ v) <= 1e-10

    def test_identity_quadratic(self):
        r = np.array([1.0, -2.0])
        v = np.array([4.0, 4.0])
        w = 3.0
        x = prox_l(QuadraticTerm(w, r), identity_map(2), v)
        assert np.allclose(x, (v + w * r) / (1.0 + w))

    def test_identity_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(prox_l(None, identity_map(3), v), v)

    def test_unsupported_function(self):
        with pytest.raises(UnsupportedFunctionError):
            prox_l(cat.zero_fn(2), identity_map(2), [0.0, 0.0])

    def test_singular_system(self):
        L = matrix_map(np.array([[1.0, 0.0]]))
        with pytest.raises(PreconditionError):
            prox_l(None, L, [1.0])


class TestAdmm:
    def test_box_constrained_prox(self):
        r = np.array([2.0, -1.0])
        f = QuadraticTerm(1.0, r)
        g = sets.indicator(sets.Box(np.zeros(2), np.ones(2)))
        res = admm(f, identity_map(2), g, gamma=1.0, stop=TIGHT)
        assert np.allclose(res.final_x, [1.0, 0.0], atol=1e-9)

    def test_free_x_identity(self):
        y = np.array([0.3, -0.7, 1.1])
        g = cat.quadratic_deviation(y, 1.0)
        res = admm(None, identity_map(3), g, gamma=1.0, stop=TIGHT)
        assert np.allclose(res.final_x, y, atol=1e-9)

    def test_stacked_difference_cross_check_dual_fb(self):
        # min ||x-r||^2/2 + omega*||Dx||_1 via ADMM with L = [D; I] and a zero
        # block, against the dual forward-backward solution
        rng = np.random.default_rng(11)
        r = rng.standard_normal(5)
        omega = 0.25
        D = first_difference(5)
        Dmat = D.to_dense()
        L = matrix_map(np.vstack([Dmat, np.eye(5)]))
        g = cat.stacked([cat.weighted_l1(np.full(4, omega)), cat.zero_fn(5)])
        res_admm = admm(QuadraticTerm(1.0, r), L, g, gamma=1.0, stop=TIGHT)
        res_dfb = dual_forward_backward(
            cat.zero_fn(5), cat.weighted_l1(np.full(4, omega)), D, r, stop=TIGHT
        )
        assert np.max(np.abs(res_admm.final_x - res_dfb.final_x)) <= 1e-5

    def test_tight_frame_cross_check_dykstra(self):
        rng = np.random.default_rng(12)
        theta = 0.4
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        B = math.sqrt(2.0) * R
        r = rng.standard_normal(2)
        L = matrix_map(np.vstack([B, np.eye(2)]))
        g1 = cat.weighted_l1(np.full(2, 0.3))
        g2 = sets.indicator(sets.Box(-np.ones(2), np.ones(2)))
        g = cat.stacked([g1, g2])
        res_admm = admm(QuadraticTerm(1.0, r), L, g, gamma=1.0, stop=TIGHT)
        # equivalent Problem: prox of (g1 o B) + g2 at r
        comp = cat.tight_frame_compose(g1, matrix_map(B, tight_frame_nu=2.0))
        res_dyk = dykstra_like(comp, g2, r, stop=TIGHT)
        assert np.max(np.abs(res_admm.final_x - res_dyk.final_x)) <= 1e-5


class TestPpxa:
    def test_two_interval_indicators(self):
        f1 = sets.indicator(sets.Box([0.0], [1.0]))
        f2 = sets.indicator(sets.Box([0.5], [2.0]))
        res = ppxa([f1, f2], [0.5, 0.5], stop=TIGHT)
        assert res.converged
        assert 0.5 - 1e-7 <= res.final_x[0] <= 1.0 + 1e-7

    def test_single_function_proximal_point(self):
        inner = cat.SmoothPlusSupport(cat.Interval(-3.0, 7.0), -1.0, 1.0)  # |t| + i_[-3,7]
        f = cat.translated(cat.separable(inner, dim=1), [3.0])  # |t-3| + i_[0,10]
        res = ppxa([f], [1.0], stop=TIGHT)
        assert res.final_x[0] == pytest.approx(3.0, abs=1e-8)

    def test_lasso_three_way_split(self):
        A, y, w = lasso_fixture()
        f_quad = cat.quadratic(matrix_map(A), y, 1.0)
        f_l1 = cat.weighted_l1(w)
        f_box = sets.indicator(sets.Box(np.full(3, -10.0), np.full(3, 10.0)))
        res = ppxa([f_quad, f_l1, f_box], np.full(3, 1 / 3), stop=TIGHT)
        ref = fista(f_l1, least_squares_smooth(matrix_map(A), y), stop=TIGHT)
        assert np.max(np.abs(res.final_x - ref.final_x)) <= 1e-6

    def test_weight_validation(self):
        f = cat.zero_fn(1)
        with pytest.raises(InvalidParameterError):
            ppxa([f, f], [0.7, 0.7])
        with pytest.raises(InvalidParameterError):
            ppxa([f, f], [1.2, -0.2])

    def test_branch_scale_overflow_names_gamma(self):
        # gamma / omega_i = 2e308 is inf: refused on entry, not blamed on a branch's prox
        f_list = [cat.quadratic_deviation([1.0, 2.0]), cat.zero_fn(2)]
        with pytest.raises(InvalidParameterError, match=r"gamma / weights\[0\] must be a finite number"):
            ppxa(f_list, [0.5, 0.5], gamma=1e308)

    def _lasso_split(self):
        A, y, w = lasso_fixture()
        f_box = sets.indicator(sets.Box(np.full(3, -10.0), np.full(3, 10.0)))
        return [cat.quadratic(matrix_map(A), y, 1.0), cat.weighted_l1(w), f_box], np.full(3, 1 / 3)

    def test_zero_starts_give_the_default_bytes(self):
        f_list, w = self._lasso_split()
        ref = ppxa(f_list, w, stop=TIGHT)
        res = ppxa(f_list, w, y0_list=[np.zeros(3)] * 3, stop=TIGHT)
        assert res.final_x.tobytes() == ref.final_x.tobytes()
        assert res.iterations == ref.iterations
        assert [r.residual for r in res.records] == [r.residual for r in ref.records]

    def test_start_values_are_left_unchanged(self):
        f_list, w = self._lasso_split()
        y0 = [np.random.default_rng(k).standard_normal(3) for k in range(3)]
        kept = [y.copy() for y in y0]
        res = ppxa(f_list, w, y0_list=y0, stop=TIGHT)
        assert all(np.array_equal(a, b) for a, b in zip(y0, kept))
        ref = ppxa(f_list, w, stop=TIGHT)
        assert np.max(np.abs(res.final_x - ref.final_x)) <= 1e-6

    def test_start_count_and_dimension(self):
        f_list, w = self._lasso_split()
        for y0 in ([np.zeros(3)] * 2, [np.zeros(3)] * 4, []):
            with pytest.raises(InvalidInputError, match="one starting point per function is required"):
                ppxa(f_list, w, y0_list=y0)
        with pytest.raises(InvalidInputError, match="expected a vector of dimension 3, got 2"):
            ppxa(f_list, w, y0_list=[np.zeros(3), np.zeros(2), np.zeros(3)])

    def test_branch_prox_returning_its_argument(self):
        # zero_fn's prox returns its argument itself, a row of the branch states
        A, y, w = lasso_fixture()
        f_quad, f_l1 = cat.quadratic(matrix_map(A), y, 1.0), cat.weighted_l1(w)
        copying = ProxFn(dim=3, value=lambda x: 0.0, prox_impl=lambda gamma, x: x.copy())
        res = ppxa([f_quad, f_l1, cat.zero_fn(3)], np.full(3, 1 / 3), stop=TIGHT)
        ref = ppxa([f_quad, f_l1, copying], np.full(3, 1 / 3), stop=TIGHT)
        assert res.final_x.tobytes() == ref.final_x.tobytes()
        lasso = fista(f_l1, least_squares_smooth(matrix_map(A), y), stop=TIGHT)
        assert np.max(np.abs(res.final_x - lasso.final_x)) <= 1e-6


class TestParallelDykstra:
    def test_halfplane_pair(self):
        f1 = sets.indicator(sets.Halfspace(np.array([1.0, 0.0]), 1.0))
        f2 = sets.indicator(sets.Halfspace(np.array([0.0, 1.0]), 1.0))
        res = parallel_dykstra([f1, f2], [0.5, 0.5], [2.0, 2.0], stop=TIGHT)
        assert np.allclose(res.final_x, [1.0, 1.0], atol=1e-8)

    def test_single_function(self):
        f = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2)
        res = parallel_dykstra([f], [1.0], [3.0, -0.3], stop=TIGHT)
        assert np.allclose(res.final_x, [2.0, 0.0], atol=1e-9)

    def test_two_quadratics_analytic(self):
        # objective (1/2)||x||^2 + (1/2)||x - r||^2 has minimizer r/2
        f = cat.quadratic_deviation(np.zeros(2), 1.0)
        r = np.array([2.0, -4.0])
        res = parallel_dykstra([f, f], [0.5, 0.5], r, stop=TIGHT)
        assert np.allclose(res.final_x, r / 2.0, atol=1e-8)

    def test_branch_prox_returning_its_argument(self):
        # min 0 + (1/2)||x - c||^2 + (1/2)||x - r||^2 has minimizer (c + r)/2
        r, c = np.array([2.0, -4.0]), np.array([1.0, 1.0])
        copying = ProxFn(dim=2, value=lambda x: 0.0, prox_impl=lambda gamma, x: x.copy())
        f = cat.quadratic_deviation(c, 2.0)
        res = parallel_dykstra([cat.zero_fn(2), f], [0.5, 0.5], r, stop=TIGHT)
        ref = parallel_dykstra([copying, f], [0.5, 0.5], r, stop=TIGHT)
        assert res.final_x.tobytes() == ref.final_x.tobytes()
        assert np.allclose(res.final_x, (c + r) / 2.0, atol=1e-8)


class TestSdmm:
    def test_lasso_two_block(self):
        A, y, w = lasso_fixture()
        g1 = cat.quadratic_deviation(y, 1.0)
        g2 = cat.weighted_l1(w)
        res = sdmm([g1, g2], [matrix_map(A), identity_map(3)], gamma=1.0, stop=TIGHT)
        ref = fista(g2, least_squares_smooth(matrix_map(A), y), stop=TIGHT)
        assert np.max(np.abs(res.final_x - ref.final_x)) <= 1e-6

    def test_single_indicator(self):
        C = sets.Ball(np.zeros(2), 1.0)
        res = sdmm([sets.indicator(C)], [identity_map(2)], stop=TIGHT)
        assert C.contains(res.final_x, tol=1e-8)

    def test_singular_q(self):
        g = cat.zero_fn(1)
        L = matrix_map(np.array([[1.0, 0.0]]))
        with pytest.raises(PreconditionError):
            sdmm([g], [L])

    def _lasso_split(self):
        A, y, w = lasso_fixture()
        return [cat.quadratic_deviation(y, 1.0), cat.weighted_l1(w)], [matrix_map(A), identity_map(3)]

    def test_zero_starts_give_the_default_bytes(self):
        g_list, L_list = self._lasso_split()
        ref = sdmm(g_list, L_list, stop=TIGHT)
        zeros = [np.zeros(5), np.zeros(3)]
        res = sdmm(g_list, L_list, y0s=zeros, z0s=zeros, stop=TIGHT)
        assert res.final_x.tobytes() == ref.final_x.tobytes()
        assert res.iterations == ref.iterations
        assert [r.residual for r in res.records] == [r.residual for r in ref.records]

    def test_start_values_are_left_unchanged(self):
        g_list, L_list = self._lasso_split()
        rng = np.random.default_rng(4)
        y0s = [rng.standard_normal(5), rng.standard_normal(3)]
        z0s = [rng.standard_normal(5), rng.standard_normal(3)]
        kept = [v.copy() for v in y0s + z0s]
        res = sdmm(g_list, L_list, y0s=y0s, z0s=z0s, stop=TIGHT)
        assert all(np.array_equal(a, b) for a, b in zip(y0s + z0s, kept))
        ref = sdmm(g_list, L_list, stop=TIGHT)
        assert np.max(np.abs(res.final_x - ref.final_x)) <= 1e-6

    def test_start_count_and_dimension(self):
        g_list, L_list = self._lasso_split()
        for y0s, z0s in (
            ([np.zeros(5)], None), (None, [np.zeros(5)]), ([], []), ([np.zeros(5), np.zeros(3), np.zeros(7)], None),
        ):
            with pytest.raises(InvalidInputError, match="one starting pair per branch is required"):
                sdmm(g_list, L_list, y0s=y0s, z0s=z0s)
        with pytest.raises(InvalidInputError, match="expected a vector of dimension 5, got 3"):
            sdmm(g_list, L_list, y0s=[np.zeros(3), np.zeros(3)])
        with pytest.raises(InvalidInputError, match="expected a vector of dimension 3, got 5"):
            sdmm(g_list, L_list, z0s=[np.zeros(5), np.zeros(5)])


def _loop_average(w, vs):
    """sum_i w_i v_i accumulated branch by branch: the reference for the
    solvers' one-product reductions."""
    total = np.zeros_like(vs[0])
    for wi, vi in zip(w, vs):
        total = total + wi * vi
    return total


class TestStackedReductions:
    """The stacked solvers against loop forms of the same iterations, run for
    a fixed count.  The products sum in BLAS's order, so the iterates may move
    in the last bits; 1e-12 is a few thousand float64 roundings at these
    magnitudes."""

    N = 30
    CAP = StoppingRule(tol=1e-300, max_iter=N)

    def test_ppxa(self):
        A, y, w = lasso_fixture()
        f_box = sets.indicator(sets.Box(np.full(3, -10.0), np.full(3, 10.0)))
        f_list = [cat.quadratic(matrix_map(A), y, 1.0), cat.weighted_l1(w), f_box]
        weights, gamma, lam = np.array([0.5, 0.3, 0.2]), 0.7, 1.5
        ys = [np.full(3, float(k)) for k in range(3)]
        res = ppxa(f_list, weights, gamma=gamma, schedule=Schedule(lam=lam), y0_list=ys, stop=self.CAP)
        x = _loop_average(weights, ys)
        for _ in range(self.N):
            ps = [f.prox(gamma / wi, yi) for f, wi, yi in zip(f_list, weights, ys)]
            p = _loop_average(weights, ps)
            ys = [yi + lam * (2.0 * p - x - pi) for yi, pi in zip(ys, ps)]
            x = x + lam * (p - x)
        assert res.iterations == self.N
        assert np.max(np.abs(res.final_x - x)) <= 1e-12

    def test_parallel_dykstra(self):
        A, y, w = lasso_fixture()
        f_list = [cat.quadratic(matrix_map(A), y, 1.0), cat.weighted_l1(w)]
        weights, r = np.array([0.6, 0.4]), np.array([1.0, -2.0, 0.5])
        res = parallel_dykstra(f_list, weights, r, stop=self.CAP)
        zs = [r.copy() for _ in f_list]
        for _ in range(self.N):
            ps = [f.prox(1.0, zi) for f, zi in zip(f_list, zs)]
            x = _loop_average(weights, ps)
            zs = [x + zi - pi for zi, pi in zip(zs, ps)]
        assert res.iterations == self.N
        assert np.max(np.abs(res.final_x - x)) <= 1e-12

    def test_sdmm(self):
        A, y, w = lasso_fixture()
        B = np.random.default_rng(3).standard_normal((4, 3))
        g_list = [cat.quadratic_deviation(y, 1.0), cat.weighted_l1(w), cat.weighted_l1(np.full(4, 0.2))]
        mats = [A, np.eye(3), B]
        gamma = 0.8
        res = sdmm(g_list, [matrix_map(M) for M in mats], gamma=gamma, stop=self.CAP)
        Q_inv = np.linalg.inv(sum(M.T @ M for M in mats))
        ys = [np.zeros(len(M)) for M in mats]
        zs = [np.zeros(len(M)) for M in mats]
        for _ in range(self.N):
            x = Q_inv @ _loop_average(np.ones(3), [M.T @ (yi - zi) for M, yi, zi in zip(mats, ys, zs)])
            ss = [M @ x for M in mats]
            ys = [g.prox(gamma, s + zi) for g, s, zi in zip(g_list, ss, zs)]
            zs = [zi + s - yi for zi, s, yi in zip(zs, ss, ys)]
        assert res.iterations == self.N
        assert np.max(np.abs(res.final_x - x)) <= 1e-12


def _stacked_ppxa(f_list, w, gamma, lam, stop):
    """ppxa as one stacked array per iteration, with lambda held at ``lam``:
    the reference for the in-place update's bytes."""
    Y = np.zeros((len(f_list), f_list[0].dim))
    x = w @ Y
    scales = [gamma / wi for wi in w.tolist()]
    run = _Run(stop, lambda v: np.sum([f.eval(v) for f in f_list], axis=0), [(f, "prox") for f in f_list])
    for _, proxes in run:
        P = np.array([prox(c, yi) for prox, c, yi in zip(proxes, scales, Y)])
        p = w @ P
        Y += lam * (2.0 * p - x - P)
        x_prev, x = x, x + lam * (p - x)
        if run.done(x, x_prev):
            break
    return run.result(x)


def _stacked_parallel_dykstra(f_list, w, r, stop):
    """parallel_dykstra as one stacked array per iteration."""
    x = r.copy()
    Z = np.tile(r, (len(f_list), 1))

    def objective(v):
        return np.vecdot(np.column_stack([f.eval(v) for f in f_list]), w) + 0.5 * pow2(norm(v - r))

    run = _Run(stop, objective, [(f, "prox") for f in f_list])
    for _, proxes in run:
        P = np.array([prox(1.0, zi) for prox, zi in zip(proxes, Z)])
        x_prev, x = x, w @ P
        Z += x
        Z -= P
        if run.done(x, x_prev):
            break
    return run.result(x)


def _assert_same_run(res, ref):
    assert np.array_equal(res.final_x, ref.final_x)
    assert res.final_x.tobytes() == ref.final_x.tobytes()
    assert res.iterations == ref.iterations
    assert [r.objective for r in res.records] == [r.objective for r in ref.records]
    assert [r.residual for r in res.records] == [r.residual for r in ref.records]


class TestParallelBytes:
    """ppxa and parallel_dykstra write the branch proxes into one array per
    solve and update in place; they give the bytes of the stacked loops that
    build a new array every iteration, zero_fn's prox returning its argument
    (a row of the branch states) included."""

    @pytest.mark.parametrize("lam", [1.0, 1.5])
    def test_ppxa(self, lam):
        A, y, w = lasso_fixture()
        f_box = sets.indicator(sets.Box(np.full(3, -10.0), np.full(3, 10.0)))
        f_list = [cat.quadratic(matrix_map(A), y, 1.0), cat.weighted_l1(w), f_box, cat.zero_fn(3)]
        weights, gamma = np.array([0.4, 0.3, 0.2, 0.1]), 0.7
        res = ppxa(f_list, weights, gamma=gamma, schedule=Schedule(lam=lam), stop=TIGHT)
        ref = _stacked_ppxa(f_list, weights, gamma, lam, TIGHT)
        assert res.converged and 10 < res.iterations < TIGHT.max_iter
        _assert_same_run(res, ref)

    def test_parallel_dykstra(self):
        A, y, w = lasso_fixture()
        f_list = [cat.quadratic(matrix_map(A), y, 1.0), cat.weighted_l1(w), cat.zero_fn(3)]
        weights, r = np.array([0.5, 0.3, 0.2]), np.array([1.0, -2.0, 0.5])
        res = parallel_dykstra(f_list, weights, r, stop=TIGHT)
        ref = _stacked_parallel_dykstra(f_list, weights, r, TIGHT)
        assert res.converged and res.iterations > 10
        _assert_same_run(res, ref)


class TestStoppingRule:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            StoppingRule(tol=0.0)
        with pytest.raises(InvalidParameterError):
            StoppingRule(max_iter=0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"objective_stride": 0},
            {"objective_stride": -3},
            {"objective_dense_until": -1},
            {"max_iter": 1.5},
            {"max_iter": 100.0},
            {"max_iter": True},
            {"objective_stride": 2.0},
            {"objective_dense_until": 10.5},
            {"objective_dense_until": False},
            {"tol": "1e-8"},
        ],
    )
    def test_rejects_each_bad_field(self, fields):
        with pytest.raises(InvalidParameterError):
            StoppingRule(**fields)

    def test_accepts_integer_fields(self):
        stop = StoppingRule(max_iter=np.int64(5), objective_dense_until=0, objective_stride=1)
        assert stop.max_iter == 5

    def test_objective_cadence_beyond_dense_window(self):
        # ill-conditioned quadratic forced past 1000 iterations
        f1 = cat.zero_fn(2)
        A = np.diag([1.0, 0.02])
        f2 = least_squares_smooth(matrix_map(A), np.zeros(2))
        stop = StoppingRule(tol=1e-30, max_iter=1100)
        res = forward_backward(f1, f2, Schedule(gamma=0.5), x0=[1.0, 1.0], stop=stop)
        assert res.iterations == 1100
        tail = [r.objective for r in res.records if 1001 <= r.iteration <= 1009]
        assert len(set(tail)) <= 2  # carried value, refreshed at most once
