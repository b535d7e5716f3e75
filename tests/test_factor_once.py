"""Factor-once linear algebra: the quadratic prox, the admm, prox_l and sdmm
x-steps, which share one Gram factorization per map, the one place that
reads a map's matrix, and otherwise reach the map through its apply and
adjoint; and matrix-backed ``to_dense``."""

import collections

import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit import sets
from proxsplit.core import InvalidParameterError, LinearMap, PreconditionError, _gram_solver, identity_map, matrix_map
from proxsplit.problems import build_lasso, first_difference
from proxsplit.solvers import QuadraticTerm, StoppingRule, admm, dual_forward_backward, prox_l, sdmm

GAMMAS = (1e-3, 0.25, 1.0, 4.0)
WEIGHT = 1.3


def _scaled(A, norm_sq):
    """A rescaled so that ||A||_2^2 = norm_sq."""
    return A * np.sqrt(norm_sq) / np.linalg.norm(A, 2)


def _matrices():
    rng = np.random.default_rng(41)
    return {
        "wide": _scaled(rng.standard_normal((12, 30)), 3.0),
        "tall": _scaled(rng.standard_normal((30, 12)), 20.0),
        "square": _scaled(rng.standard_normal((16, 16)), 50.0),
        "rank5_tall": _scaled(rng.standard_normal((25, 5)) @ rng.standard_normal((5, 18)), 10.0),
        "rank5_wide": _scaled(rng.standard_normal((14, 5)) @ rng.standard_normal((5, 22)), 35.0),
    }


def _assert_solves(K, b, x):
    """x solves K x = b to 1e-10 (relative, against np.linalg.solve) with a residual
    of at most 1e-12 of ||K|| ||x|| + ||b||."""
    ref = np.linalg.solve(K, b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    scale = np.linalg.norm(K, 2) * np.linalg.norm(x) + np.linalg.norm(b)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * scale


@pytest.mark.parametrize("shape", sorted(_matrices()))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_quadratic_prox_matches_dense_solve(shape, gamma):
    A = _matrices()[shape]
    m, n = A.shape
    rng = np.random.default_rng(m * 100 + n)
    y = rng.standard_normal(m)
    f = cat.quadratic(matrix_map(A), y, WEIGHT)
    c = gamma * WEIGHT
    K = np.eye(n) + c * A.T @ A
    for _ in range(3):
        x = 3.0 * rng.standard_normal(n)
        _assert_solves(K, x + c * A.T @ y, f.prox(gamma, x))


@pytest.mark.parametrize("shape", sorted(_matrices()))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_admm_and_prox_l_x_steps_match_dense_solve(shape, gamma):
    A = _matrices()[shape]
    m, n = A.shape
    rng = np.random.default_rng(m * 100 + n)
    f = QuadraticTerm(WEIGHT, rng.standard_normal(n))
    a = gamma * WEIGHT
    K = a * np.eye(n) + A.T @ A
    v, y0, z0 = (3.0 * rng.standard_normal(m) for _ in range(3))
    _assert_solves(K, A.T @ v + a * f.center, prox_l(f, matrix_map(A), v, gamma))
    res = admm(f, matrix_map(A), cat.zero_fn(m), gamma, y0, z0, stop=_capped(1))
    _assert_solves(K, A.T @ (y0 - z0) + a * f.center, res.final_x)


def _sdmm_split(A, split):
    """sdmm's operator list for ``split``: A with one or two identities
    (a = 1, 2), an identity alone (nothing left to factor), two maps to
    stack, or A with a square tight frame F (F F^T = 4 I)."""
    n = A.shape[1]
    rng = np.random.default_rng(n)
    L, eye = matrix_map(A), identity_map(n)
    frame = matrix_map(2.0 * np.linalg.qr(rng.standard_normal((n, n)))[0], tight_frame_nu=4.0)
    return {
        "L,I": [L, eye],
        "L,I,I": [L, eye, identity_map(n)],
        "I": [eye],
        "L1,L2,I": [L, matrix_map(rng.standard_normal((3, n))), eye],
        "L,F": [L, frame],
    }[split]


@pytest.mark.parametrize("shape", sorted(_matrices()))
@pytest.mark.parametrize("split", ["L,I", "L,I,I", "I", "L1,L2,I", "L,F"])
def test_sdmm_x_step_matches_dense_solve(shape, split):
    A = _matrices()[shape]
    L_list = _sdmm_split(A, split)
    M = np.vstack([L.to_dense() for L in L_list])
    rng = np.random.default_rng(len(M))
    y0s, z0s = ([3.0 * rng.standard_normal(L.rows) for L in L_list] for _ in range(2))
    res = sdmm([cat.zero_fn(L.rows) for L in L_list], L_list, y0s=y0s, z0s=z0s, stop=_capped(1))
    _assert_solves(M.T @ M, M.T @ (np.concatenate(y0s) - np.concatenate(z0s)), res.final_x)


class _LinalgCounter:
    """Counts calls of the dense factorizations and solves in np.linalg, in
    total (``calls``) and by name (``by_name``)."""

    NAMES = ("solve", "cholesky", "inv", "eigh", "eig", "svd", "lstsq", "qr", "pinv")

    def __init__(self, monkeypatch):
        self.calls = 0
        self.by_name = collections.Counter()
        for name in self.NAMES:
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            self.by_name[name] += 1
            return fn(*args, **kwargs)

        return counted


def _capped(iterations):
    return StoppingRule(tol=1e-300, max_iter=iterations)


def _lasso():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((15, 25)) / np.sqrt(15)
    y = rng.standard_normal(15)
    return build_lasso(A, y, np.full(25, 0.05))


def test_sdmm_factors_once(monkeypatch):
    c = _lasso().components
    counter = _LinalgCounter(monkeypatch)
    counts = []
    for iterations in (50, 150):
        before = counter.calls
        res = sdmm(c["sdmm_g_list"], c["sdmm_L_list"], stop=_capped(iterations))
        assert res.iterations == iterations
        counts.append(counter.calls - before)
    assert counts[0] == counts[1] <= 2


def test_admm_factors_once(monkeypatch):
    rng = np.random.default_rng(6)
    A = rng.standard_normal((9, 6))
    f = QuadraticTerm(0.7, rng.standard_normal(6))
    g = cat.weighted_l1(np.full(9, 0.2))
    counter = _LinalgCounter(monkeypatch)
    counts = []
    for iterations in (50, 150):
        before = counter.calls
        res = admm(f, matrix_map(A), g, stop=_capped(iterations))  # a fresh map holds no factorization
        assert res.iterations == iterations
        counts.append(counter.calls - before)
    assert counts[0] == counts[1] <= 2
    L = matrix_map(A)
    admm(f, L, g, stop=_capped(5))
    before = counter.calls
    admm(f, L, g, stop=_capped(50))
    assert counter.calls == before


@pytest.mark.parametrize("shape", [(9, 6), (6, 9)])
def test_one_factorization_per_map(monkeypatch, shape):
    rng = np.random.default_rng(8)
    m, n = shape
    counter = _LinalgCounter(monkeypatch)
    L = matrix_map(rng.standard_normal(shape))
    f = QuadraticTerm(0.7, rng.standard_normal(n))
    cat.quadratic(L, rng.standard_normal(m), 0.9)
    admm(f, L, cat.weighted_l1(np.full(m, 0.2)), stop=_capped(20))
    prox_l(f, L, rng.standard_normal(m), 0.5)
    sdmm([cat.zero_fn(m), cat.zero_fn(n)], [L, identity_map(n)], stop=_capped(20))
    assert counter.by_name == {"eigh": 1}


def _count_calls(monkeypatch, method):
    """A list whose length is the number of ``LinearMap.<method>`` calls from now on."""
    calls = []
    original = getattr(LinearMap, method)

    def counted(self, *args):
        calls.append(self.name)
        return original(self, *args)

    monkeypatch.setattr(LinearMap, method, counted)
    return calls


@pytest.mark.parametrize("shape", [(9, 6), (6, 9)])
def test_x_steps_copy_no_matrix(monkeypatch, shape):
    # prox_l, admm and quadratic read a matrix map's own matrix, also when
    # the first of them fills the Gram memo: no call copies it
    rng = np.random.default_rng(9)
    m, n = shape
    L = matrix_map(rng.standard_normal(shape))
    f = QuadraticTerm(0.7, rng.standard_normal(n))
    calls = _count_calls(monkeypatch, "to_dense")
    prox_l(f, L, rng.standard_normal(m), 0.5)
    assert "gram" in L._norms
    for gamma in GAMMAS:
        prox_l(f, L, rng.standard_normal(m), gamma)
        admm(f, L, cat.weighted_l1(np.full(m, 0.2)), gamma, stop=_capped(5))
    cat.quadratic(L, rng.standard_normal(m), 0.9)
    assert calls == []


@pytest.mark.parametrize("n", [2, 7, 200])
def test_matrix_free_x_steps_apply_the_map(monkeypatch, n):
    # once the Gram memo is filled, prox_l and admm reach a matrix-free map
    # only through its adjoint and apply: prox_l applies it not at all (it
    # made n public apply calls through to_dense per call), and neither
    # materializes it again
    rng = np.random.default_rng(n)
    D, twin = first_difference(n), matrix_map(np.diff(np.eye(n), axis=0))
    f = QuadraticTerm(0.7, rng.standard_normal(n))
    g = cat.weighted_l1(np.full(n - 1, 0.2))
    vs = [rng.standard_normal(n - 1) for _ in GAMMAS]
    first = prox_l(f, D, vs[0], GAMMAS[0])
    assert "gram" in D._norms
    to_dense = _count_calls(monkeypatch, "to_dense")
    applies = _count_calls(monkeypatch, "apply")
    got = [first] + [prox_l(f, D, v, gamma) for v, gamma in zip(vs[1:], GAMMAS[1:])]
    assert applies == []
    runs = [admm(f, D, g, gamma, stop=_capped(40)) for gamma in GAMMAS]
    assert to_dense == []
    for x, v, gamma in zip(got, vs, GAMMAS):
        ref = prox_l(f, twin, v, gamma)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    for res, gamma in zip(runs, GAMMAS):
        ref = admm(f, twin, g, gamma, stop=_capped(40))
        assert np.linalg.norm(res.final_x - ref.final_x) <= 1e-12 * np.linalg.norm(ref.final_x)


@pytest.mark.parametrize("shape", sorted(_matrices()))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_x_step_keeps_the_dense_bytes(shape, gamma):
    # L.adjoint(v) on a matrix map is the product A.T @ v on its own matrix,
    # so the x-step gives the bytes of solve(A.T @ v + w c)
    A = _matrices()[shape]
    m, n = A.shape
    rng = np.random.default_rng(m + n)
    L = matrix_map(A)
    f = QuadraticTerm(WEIGHT, rng.standard_normal(n))
    v, y0, z0 = (rng.standard_normal(m) for _ in range(3))
    w = gamma * WEIGHT
    solve = _gram_solver(L, w, 1.0)
    assert prox_l(f, L, v, gamma).tobytes() == solve(L.matrix.T @ v + w * f.center).tobytes()
    res = admm(f, L, cat.zero_fn(m), gamma, y0, z0, stop=_capped(1))
    assert res.final_x.tobytes() == solve(L.matrix.T @ (y0 - z0) + w * f.center).tobytes()


# maps whose Gram matrix overflows: diag(1e200, 1e200) and a row and a column of 1e200
BIG = np.diag([1e200, 1e200])
GRAM_OVERFLOWS = {
    "prox_l": lambda: prox_l(None, matrix_map(BIG), [1.0, 1.0]),
    "admm": lambda: admm(None, matrix_map(BIG), cat.zero_fn(2)),
    "sdmm": lambda: sdmm([cat.zero_fn(2)], [matrix_map(BIG)]),
    "quadratic-wide": lambda: cat.quadratic(matrix_map([[1e200, 1e200]]), [1.0]).prox(1.0, [1.0, 2.0]),
    "quadratic-tall": lambda: cat.quadratic(matrix_map([[1e200], [1e200]]), [1.0, 1.0]).prox(1.0, [1.0]),
}


@pytest.mark.parametrize("case", GRAM_OVERFLOWS)
def test_gram_overflow_is_named(case):
    with pytest.raises(InvalidParameterError, match="Gram matrix of L overflows"):
        GRAM_OVERFLOWS[case]()


def test_sdmm_tv_on_a_matrix_free_difference(monkeypatch):
    # TV denoising with first_difference left matrix-free: sdmm applies it
    # slice by slice, and materializes it once, for its memoized factorization
    n, omega = 60, 0.5
    rng = np.random.default_rng(60)
    r = np.repeat(rng.uniform(-2.0, 2.0, 6), 10) + 0.1 * rng.standard_normal(n)
    g_list = [cat.quadratic_deviation(r), cat.weighted_l1(np.full(n - 1, omega))]
    D = first_difference(n)
    L_list = [identity_map(n), D]
    assert D.matrix is None
    calls = _count_calls(monkeypatch, "to_dense")
    tight = StoppingRule(tol=1e-12, max_iter=100_000)
    results = [sdmm(g_list, L_list, stop=tight) for _ in range(2)]
    assert calls == ["first_difference"]
    ref = dual_forward_backward(cat.zero_fn(n), g_list[1], D, r, stop=tight)
    for res in results:
        assert res.converged
        assert np.max(np.abs(res.final_x - ref.final_x)) <= 1e-6
    assert results[0].final_x.tobytes() == results[1].final_x.tobytes()


def test_quadratic_prox_runs_no_factorization(monkeypatch):
    rng = np.random.default_rng(7)
    f = cat.quadratic(matrix_map(rng.standard_normal((8, 11))), rng.standard_normal(8), 0.9)
    counter = _LinalgCounter(monkeypatch)
    for gamma in GAMMAS * 25:
        f.prox(gamma, rng.standard_normal(11))
    assert counter.calls == 0


def test_sdmm_singular_q_still_raises():
    L = matrix_map(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(PreconditionError, match=r"Q = sum_i L_i\^T L_i is singular"):
        sdmm([cat.zero_fn(2)], [L])


def test_admm_singular_x_step_still_raises():
    L = matrix_map(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
    g = sets.indicator(sets.Box(-np.ones(2), np.ones(2)))
    with pytest.raises(PreconditionError, match="the x-step system is singular"):
        admm(None, L, g)


class TestToDense:
    def test_matrix_map_returns_its_matrix(self):
        A = np.arange(12.0).reshape(3, 4)
        L = matrix_map(A)
        D = L.to_dense()
        assert D.tobytes() == A.tobytes()
        D[0, 0] = 99.0
        x = np.ones(4)
        assert np.array_equal(L.apply(x), A @ x)
        assert L.to_dense()[0, 0] == 0.0

    def test_matrix_free_map_materializes_by_columns(self):
        n = 7

        def adjoint(u):
            return np.concatenate(([-u[0]], u[:-1] - u[1:], [u[-1]]))

        L = LinearMap(n - 1, n, np.diff, adjoint, name="diff")
        assert L.matrix is None
        assert np.array_equal(L.to_dense(), np.diff(np.eye(n), axis=0))

    def test_identity_map(self):
        assert np.array_equal(identity_map(4).to_dense(), np.eye(4))

    def test_mismatched_matrix_rejected(self):
        with pytest.raises(InvalidParameterError):
            LinearMap(2, 3, lambda x: x, lambda u: u, matrix=np.zeros((3, 2)))
