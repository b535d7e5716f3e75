"""Evaluation of a (k, dim) stack of points: every value, set operation and
product of a map (apply and adjoint) gives each row the bytes that the row
alone gets, and the solvers' trace objective, evaluated in blocks of
iterates, equals the point-by-point one."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _rotation, catalog_zoo, grid_min_2d
from proxsplit import catalog as cat
from proxsplit import problems, sets, solvers
from proxsplit.core import (
    InvalidInputError,
    LinearMap,
    ProxFn,
    SmoothFn,
    as_points,
    as_vector,
    identity_map,
    matrix_map,
    subgradient_certificate,
)


def _points(dim, k=9, seed=0, scale=2.0):
    return np.random.default_rng(seed).standard_normal((k, dim)) * scale


def _rows_equal(stacked, rows):
    rows = np.array(rows, dtype=float)
    assert stacked.shape == rows.shape
    assert stacked.tobytes() == rows.tobytes()


def _stacks(dim, seed=0):
    """A stack, one row of it, and a non-contiguous slice of rows."""
    X = _points(dim, k=12, seed=seed)
    return [X, X[:1], X[::3]]


def _one_call(f, X):
    """The values of ``f`` from one call of its ``value`` on the stack, which
    ``eval`` would discard for a row-by-row evaluation if it were wrong."""
    return np.asarray(f.value(as_points(X, f.dim)), dtype=float)


ZOO = catalog_zoo()


@pytest.mark.parametrize("f", ZOO, ids=[f"{i}-{f.name}" for i, f in enumerate(ZOO)])
def test_zoo_values_match_row_by_row(f):
    for X in _stacks(f.dim):
        rows = [f.eval(x) for x in X]
        _rows_equal(f.eval(X), rows)
        if f.name != "conjugate(separable)":  # its value_fn is written for one point
            _rows_equal(_one_call(f, X), rows)


def test_zoo_stacks_cover_infinite_rows():
    infinite = sum(bool(np.isinf(f.eval(_points(f.dim, k=12))).any()) for f in ZOO)
    assert infinite >= 10


@pytest.mark.parametrize("f", ZOO, ids=[f"{i}-{f.name}" for i, f in enumerate(ZOO)])
def test_certificate_equals_the_per_sample_loop(f):
    rng = np.random.default_rng(11)
    for gamma in (0.5, 2.0):
        x = rng.standard_normal(f.dim) * 2.0
        p = f.prox(gamma, x)
        fp = f.eval(p)
        got = subgradient_certificate(f, x, p, samples=16, gamma=gamma, radius=0.75, seed=5)
        if not np.isfinite(fp):
            assert got == np.inf
            continue
        # the sampling and the loop of the one-sample-at-a-time certificate
        r = np.random.default_rng(5)
        scales = r.uniform(0.0, 0.75, size=16)
        dirs = r.standard_normal((16, f.dim))
        norms = np.maximum(np.linalg.norm(dirs, axis=1), 1e-300)
        u = (x - p) / gamma
        worst = -np.inf
        for s, d, nd in zip(scales, dirs, norms):
            y = p + s * d / nd
            worst = max(worst, fp + float(u @ (y - p)) - f.eval(y))
        assert np.float64(got).tobytes() == np.float64(worst).tobytes()


def test_certificate_with_given_samples():
    f = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)
    assert subgradient_certificate(f, [2.0], [1.0], ys=[]) == -np.inf
    assert subgradient_certificate(f, [2.0], [1.0], ys=np.array([[0.0], [0.5]])) <= 1e-12
    with pytest.raises(InvalidInputError, match="dimension 1"):
        subgradient_certificate(f, [2.0], [1.0], ys=[[0.0, 1.0]])


SETS = [
    sets.Box([-1.0, 0.0, -np.inf], [1.0, np.inf, 0.5]),
    sets.Halfspace([1.0, -2.0, 0.5], 0.3),
    sets.Hyperplane([1.0, -2.0, 0.5], 0.3),
    sets.Ball([0.2, -0.1, 0.0], 1.5),
    sets.AffineSubspace(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]), [1.0, 0.5]),
    sets.orthant(3),
    sets.point([0.5, 0.0, -1.0]),
]


@pytest.mark.parametrize("C", SETS, ids=[type(C).__name__ for C in SETS])
def test_set_operations_match_row_by_row(C):
    for X in _stacks(C.dim, seed=1) + [C.project(_points(C.dim, seed=2))]:  # inside points too
        _rows_equal(C.project(X), [C.project(x) for x in X])
        _rows_equal(C.distance(X), [C.distance(x) for x in X])
        assert C.contains(X).tolist() == [C.contains(x) for x in X]
        _rows_equal(C.support(X), [C.support(x) for x in X])
        ind = sets.indicator(C)
        _rows_equal(_one_call(ind, X), [ind.eval(x) for x in X])


def _smooth_terms():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 8))
    y = rng.standard_normal(5)
    yield "least_squares(matrix)", problems.least_squares_smooth(matrix_map(A), y)
    yield "least_squares(first_difference)", problems.least_squares_smooth(problems.first_difference(8), y[:4].repeat(2)[:7])
    yield "set_distance", problems.set_distance_smooth(sets.Ball(np.zeros(8), 1.0))


@pytest.mark.parametrize("name, f", list(_smooth_terms()), ids=[n for n, _ in _smooth_terms()])
def test_smooth_terms_match_row_by_row(name, f):
    for X in _stacks(f.dim, seed=3):
        _rows_equal(_one_call(f, X), [f.eval(x) for x in X])


@pytest.mark.parametrize("n", [7, 8])
def test_pairwise_tv_terms_match_row_by_row(n):
    inst = problems.build_tv1d(np.linspace(-1.0, 1.0, n), 0.4)
    for f in inst.components["ppxa"]["f_list"]:
        for X in _stacks(n, seed=5):
            _rows_equal(_one_call(f, X), [f.eval(x) for x in X])


def test_quadratic_term_matches_row_by_row():
    q = solvers.QuadraticTerm(1.7, [0.5, -1.0, 2.0])
    for X in _stacks(3, seed=6):
        _rows_equal(q.eval(X), [q.eval(x) for x in X])


def test_first_difference_slices_work_on_the_last_axis():
    L = problems.first_difference(6)
    X = _points(6, k=4)
    U = _points(5, k=4, seed=1)
    _rows_equal(L.apply_impl(X), [L.apply(x) for x in X])
    _rows_equal(L.adjoint_impl(U), [L.adjoint(u) for u in U])


def test_matrix_map_applies_a_stack_with_the_rows_bytes():
    L = matrix_map(np.random.default_rng(7).standard_normal((4, 6)))
    for X in _stacks(6):
        _rows_equal(L.apply(X), [L.apply(x) for x in X])
    _rows_equal(identity_map(3).apply(_points(3)), list(_points(3)))


def test_matrix_free_map_applies_a_stack_row_by_row():
    seen = []

    def apply_impl(x):
        seen.append(x.ndim)
        if x.ndim != 1:
            raise TypeError("this map takes one vector")
        return np.diff(x)

    L = LinearMap(4, 5, apply_impl, lambda u: np.zeros(5))
    X = _points(5, k=3)
    _rows_equal(L.apply(X), [np.diff(x) for x in X])
    assert set(seen) == {1}
    assert L.apply(np.empty((0, 5))).shape == (0, 4)
    with pytest.raises(InvalidInputError, match="dimension 4"):
        LinearMap(4, 5, lambda x: x, lambda u: u).apply(X)
    composed = cat.tight_frame_compose(cat.separable(cat.Huber(1.0, 1.0), dim=2), LinearMap(
        2, 2, lambda x: _rotation(0.3) @ x, lambda u: _rotation(0.3).T @ u, tight_frame_nu=1.0))
    _rows_equal(_one_call(composed, _points(2)), [composed.eval(x) for x in _points(2)])


def _one_vector(fn):
    """``fn`` as a user writes it for one vector: it refuses a stack."""
    def impl(v):
        if v.ndim != 1:
            raise TypeError("this map takes one vector")
        return fn(v)
    return impl


_G = np.random.default_rng(8).standard_normal((5, 7))
MAPS = {
    "matrix-C": lambda: matrix_map(_G),
    "matrix-F": lambda: matrix_map(np.asfortranarray(_G)),
    "matrix-column-reversed": lambda: matrix_map(_G[:, ::-1]),
    "identity": lambda: identity_map(6),
    "first_difference": lambda: problems.first_difference(7),
    "user-written": lambda: LinearMap(
        6, 7, _one_vector(np.diff), _one_vector(lambda u: np.concatenate(([-u[0]], -np.diff(u), [u[-1]])))),
}


@pytest.mark.parametrize("name", list(MAPS))
def test_both_products_of_a_stack_have_the_rows_bytes(name):
    L = MAPS[name]()
    for X in _stacks(L.cols, seed=8):
        _rows_equal(L.apply(X), [L.apply(x) for x in X])
    for U in _stacks(L.rows, seed=9):
        _rows_equal(L.adjoint(U), [L.adjoint(u) for u in U])
    assert L.adjoint(np.empty((0, L.rows))).shape == (0, L.cols)


@pytest.mark.parametrize("name", ["matrix-C", "user-written"])
def test_adjoint_checks_a_stack_as_apply_does(name):
    L = MAPS[name]()
    for product, dim in ((L.apply, L.cols), (L.adjoint, L.rows)):
        with pytest.raises(InvalidInputError, match=f"vectors of dimension {dim}"):
            product(np.zeros((2, dim + 1)))
        bad = np.zeros((2, dim))
        bad[1, 0] = np.inf
        with pytest.raises(InvalidInputError, match="finite"):
            product(bad)
    with pytest.raises(InvalidInputError, match="dimension 5"):
        LinearMap(4, 5, lambda x: x, lambda u: u).adjoint(_points(4, k=3))


def test_stack_is_validated_like_a_vector():
    f = cat.weighted_l1(np.ones(3))
    with pytest.raises(InvalidInputError, match="finite"):
        f.eval(np.array([[0.0, 1.0, np.nan]]))
    with pytest.raises(InvalidInputError, match="dimension 3"):
        f.eval(np.zeros((2, 4)))
    assert f.eval([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]]).tolist() == [3.5, 0.0]
    assert f.eval(np.zeros((0, 3))).shape == (0,)


def test_value_written_for_one_point_is_called_per_row():
    f = ProxFn(dim=2, value=lambda x: float(np.sum(np.abs(x))), prox_impl=lambda gamma, x: x)
    X = _points(2, k=4)
    _rows_equal(f.eval(X), [np.sum(np.abs(x)) for x in X])
    g = SmoothFn(dim=2, value=lambda x: 0.0, grad_impl=lambda x: np.zeros(2), lipschitz=1.0)
    assert g.eval(X).tolist() == [0.0] * 4
    # indexes the first axis: on a stack of two rows it returns two wrong numbers
    first_axis = ProxFn(dim=2, value=lambda x: x[0] ** 2 + 10.0 * x[1], prox_impl=lambda gamma, x: x)
    for Y in (X, X[:2], X[:1]):
        _rows_equal(first_axis.eval(Y), [x[0] ** 2 + 10.0 * x[1] for x in Y])
    # on a k == dim stack, a first-axis value gives k numbers: the columns' values
    columns = ProxFn(dim=3, value=lambda x: x[0] + x[1] + x[2], prox_impl=lambda gamma, x: x)
    assert columns.eval([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]).tolist() == [1.0, 0.0, 0.0]
    c = np.array([1.0, -2.0, 0.5])
    transposed = SmoothFn(dim=3, value=lambda x: np.dot(c, x), grad_impl=lambda x: c, lipschitz=1.0)
    Y = _points(3, k=3)
    _rows_equal(transposed.eval(Y), [np.dot(c, y) for y in Y])
    failing = ProxFn(dim=2, value=lambda x: 1.0 / float(x[..., 1]), prox_impl=lambda gamma, x: x)
    with pytest.raises(ZeroDivisionError):  # the error of the row, not the stack's TypeError
        failing.eval([[1.0, 2.0], [1.0, 0.0]])


def test_solve_with_a_value_written_for_one_point():
    rng = np.random.default_rng(1)
    A, y = rng.standard_normal((4, 3)), rng.standard_normal(4)
    f1 = cat.weighted_l1(np.full(3, 0.1))
    one_point = SmoothFn(
        dim=3,
        value=lambda x: 0.5 * float(np.linalg.norm(A @ x - y) ** 2),  # fails on a stack
        grad_impl=lambda x: A.T @ (A @ x - y),
        lipschitz=float(np.linalg.norm(A, 2) ** 2),
    )
    res = solvers.forward_backward(f1, one_point, stop=solvers.StoppingRule(tol=1e-12))
    assert res.converged and res.iterations < 1000  # every iterate's objective is evaluated
    assert res.records[-1].objective == f1.eval(res.final_x) + one_point.eval(res.final_x)


def test_solve_whose_last_block_holds_as_many_rows_as_the_dimension(monkeypatch):
    # a value that indexes the first axis; 128 + 3 iterates leave a 3-row block
    first_axis = SmoothFn(
        dim=3,
        value=lambda x: 0.5 * (x[0] ** 2 + 2.0 * x[1] ** 2 + 3.0 * x[2] ** 2),
        grad_impl=lambda x: np.array([1.0, 2.0, 3.0]) * x,
        lipschitz=300.0,  # small steps: no fixed point within 131 iterations
    )
    f1 = cat.zero_fn(3)
    stop = solvers.StoppingRule(tol=1e-300, max_iter=131)
    iterates, res = _iterates_and_records(
        lambda: solvers.forward_backward(f1, first_axis, x0=[1.0, -2.0, 3.0], stop=stop), monkeypatch
    )
    assert res.iterations == 131
    column = [r.objective for r in res.records]
    assert column == _reference_column(iterates, lambda x: f1.eval(x) + first_axis.eval(x), stop)


def _iterates_and_records(solve, monkeypatch):
    iterates = []
    done = solvers._Run.done

    def recording(self, x, change, measure):
        iterates.append(np.array(x, dtype=float, copy=True))
        return done(self, x, change, measure)

    with monkeypatch.context() as m:
        m.setattr(solvers._Run, "done", recording)
        result = solve()
    return iterates, result


def _reference_column(iterates, objective, stop):
    column, last = [], math.inf
    for n, x in enumerate(iterates, 1):
        if n <= stop.objective_dense_until or n % stop.objective_stride == 0:
            last = objective(x)
        column.append(last)
    return column


@settings(max_examples=300, deadline=None)
@given(count=st.integers(0, 60), dense=st.integers(0, 20), stride=st.integers(1, 15))
def test_objective_column_carries_each_value_to_the_next_due_iteration(count, dense, stride):
    stop = solvers.StoppingRule(max_iter=max(1, count), objective_dense_until=dense, objective_stride=stride)
    run = solvers._Run(stop, objective=None)
    due = [n for n in range(1, count + 1) if run._due(n)]
    run._values = [float(n) for n in due]  # each due iteration's value is its number
    iterates = [float(n) for n in range(1, count + 1)]
    assert run._objective_column(count) == _reference_column(iterates, lambda n: n, stop)


@pytest.mark.parametrize("n", [200, 1000])
def test_trace_objective_across_blocks_and_strides(n, monkeypatch):
    rng = np.random.default_rng(9)
    A = rng.standard_normal((40, n)) / math.sqrt(40)
    y = rng.standard_normal(40)
    f1, f2 = cat.weighted_l1(np.full(n, 0.05)), problems.least_squares_smooth(matrix_map(A), y)
    # 300 dense evaluations, then every 7th: 358 evaluated iterates, which
    # cross 2 block boundaries at n = 200 (128 rows) and 5 at n = 1000 (65)
    stop = solvers.StoppingRule(tol=1e-300, max_iter=700, objective_dense_until=300, objective_stride=7)
    iterates, res = _iterates_and_records(lambda: solvers.forward_backward(f1, f2, stop=stop), monkeypatch)
    assert res.iterations == 700
    column = [r.objective for r in res.records]
    assert column == _reference_column(iterates, lambda x: f1.eval(x) + f2.eval(x), stop)
    assert len(set(column[300:])) < 400 - 300 // 7  # values carried between strides


def test_trace_objective_of_a_vector_longer_than_the_block(monkeypatch):
    n = 70_000  # more entries than one block holds: one row per evaluation
    r = np.linspace(-1.0, 1.0, n)
    f1, f2 = cat.quadratic_deviation(r), problems.set_distance_smooth(sets.orthant(n))
    stop = solvers.StoppingRule(tol=1e-300, max_iter=4, objective_dense_until=2, objective_stride=2)
    iterates, res = _iterates_and_records(lambda: solvers.forward_backward(f1, f2, stop=stop), monkeypatch)
    assert [rec.objective for rec in res.records] == _reference_column(iterates, lambda x: f1.eval(x) + f2.eval(x), stop)


SOLVES = {
    "pocs": lambda stop: solvers.pocs([sets.Ball([2.0, 0.0], 1.5), sets.Halfspace([1.0, 1.0], 1.0)], stop=stop),
    "dykstra_like": lambda stop: solvers.dykstra_like(
        sets.indicator(sets.Box([0.0, 0.0], [1.0, 1.0])), cat.weighted_l1([0.3, 0.3]), [2.0, -0.5], stop=stop),
    "dual_forward_backward": lambda stop: problems.run_instance(
        problems.build_tv1d(np.array([0.0, 0.2, 1.0, 0.9, 1.1, 0.0]), 0.3), "dual_forward_backward", stop=stop),
    "ppxa": lambda stop: problems.run_instance(
        problems.build_tv1d(np.array([0.0, 0.2, 1.0, 0.9, 1.1, 0.0]), 0.3), "ppxa", stop=stop),
    "parallel_dykstra": lambda stop: solvers.parallel_dykstra(
        [cat.weighted_l1([1.0, 1.0]), sets.indicator(sets.Ball([0.0, 0.0], 1.0))], [0.5, 0.5], [2.0, -3.0], stop=stop),
    "sdmm": lambda stop: solvers.sdmm(
        [cat.quadratic_deviation([1.0, 2.0, 0.5]), cat.weighted_l1([0.2, 0.2])],
        [matrix_map(np.array([[1.0, 0.5], [0.0, 1.0], [1.0, -1.0]])), identity_map(2)], stop=stop),
    "admm": lambda stop: solvers.admm(
        solvers.QuadraticTerm(1.0, [1.0, -2.0]), identity_map(2), cat.weighted_l1([0.5, 0.5]), stop=stop),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_every_loop_records_its_objective_in_blocks(name):
    dense = SOLVES[name](solvers.StoppingRule(tol=1e-300, max_iter=300, objective_dense_until=300))
    strided = SOLVES[name](solvers.StoppingRule(tol=1e-300, max_iter=300, objective_dense_until=131, objective_stride=3))
    assert dense.final_x.tobytes() == strided.final_x.tobytes()
    for n, (d, s) in enumerate(zip(dense.records, strided.records), 1):
        carried = n if n <= 131 else 3 * (n // 3)
        assert s.objective == dense.records[carried - 1].objective
        assert s.residual == d.residual


@pytest.mark.parametrize("max_iter", [1, 2, 50])
def test_non_finite_iterate_still_raises(max_iter):
    inst = problems.build_lasso(np.eye(2), [1e308, -1e308], [1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError, match="finite"):
        problems.run_instance(inst, "forward_backward", stop=solvers.StoppingRule(max_iter=max_iter))


def test_non_finite_last_iterate_raises_when_its_objective_is_evaluated():
    # the one step overflows to +inf, and no prox follows it: the error comes
    # from the evaluation of the block that holds it
    f1 = sets.indicator(sets.Box([1e308], [1.7e308]))
    f2 = problems.set_distance_smooth(sets.Box([-np.inf], [np.inf]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError, match="finite"):
        solvers.forward_backward(f1, f2, x0=[-1.7e308], stop=solvers.StoppingRule(max_iter=1))


def _grid_min_loop(F, center, halfwidth, rounds=6, pts=81):
    """The point-by-point grid search: x-major, a point kept only when
    strictly better."""
    cx, cy = float(center[0]), float(center[1])
    h = float(halfwidth)
    for _ in range(rounds):
        best_v, best = np.inf, None
        for xv in np.linspace(cx - h, cx + h, pts):
            for yv in np.linspace(cy - h, cy + h, pts):
                v = F(np.array([[xv, yv]]))[0]
                if v < best_v:
                    best_v, best = v, (xv, yv)
        if best is None or not np.isfinite(best_v):
            raise InvalidInputError("grid oracle found no finite value")
        cx, cy = best
        h = 3.0 * (2.0 * h / (pts - 1))
    return np.array(best)


GRID_FUNCTIONS = {
    "smooth": lambda P: (P[:, 0] - 0.3) ** 2 + 2.0 * (P[:, 1] + 0.7) ** 2,
    "flat": lambda P: np.zeros(len(P)),  # every point ties
    "level_sets": lambda P: np.floor(np.abs(P[:, 0]) + np.abs(P[:, 1])),
    "half_infinite_with_nan": lambda P: np.where(P[:, 0] < 0.1, np.inf, np.where(P[:, 1] > 1.0, np.nan, P[:, 0])),
}


@pytest.mark.parametrize("name", sorted(GRID_FUNCTIONS))
def test_grid_min_keeps_the_first_minimum_of_the_loop(name):
    F = GRID_FUNCTIONS[name]
    got = grid_min_2d(F, [0.2, -0.1], 1.5, rounds=3, pts=21)
    assert got.tobytes() == _grid_min_loop(F, [0.2, -0.1], 1.5, rounds=3, pts=21).tobytes()


def test_grid_min_rejects_a_grid_without_finite_values():
    with pytest.raises(InvalidInputError, match="no finite value"):
        grid_min_2d(lambda P: np.full(len(P), np.inf), [0.0, 0.0], 1.0)


def test_as_vector_is_unchanged_for_one_point():
    x = np.arange(3.0)
    assert as_vector(x, 3) is x
    assert cat.weighted_l1(np.ones(3)).eval(x) == 3.0
