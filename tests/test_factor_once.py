"""Factor-once linear algebra: the quadratic prox, the sdmm and admm x-steps,
and matrix-backed ``to_dense``."""

import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit import sets
from proxsplit.core import InvalidParameterError, LinearMap, PreconditionError, identity_map, matrix_map
from proxsplit.problems import build_lasso
from proxsplit.solvers import QuadraticTerm, StoppingRule, admm, sdmm

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
        b = x + c * A.T @ y
        p = f.prox(gamma, x)
        ref = np.linalg.solve(K, b)
        assert np.linalg.norm(p - ref) <= 1e-10 * np.linalg.norm(ref)
        scale = np.linalg.norm(K, 2) * np.linalg.norm(p) + np.linalg.norm(b)
        assert np.linalg.norm(K @ p - b) <= 1e-12 * scale


class _LinalgCounter:
    """Counts calls of the dense factorizations and solves in np.linalg."""

    NAMES = ("solve", "cholesky", "inv", "eigh", "eig", "svd", "lstsq", "qr", "pinv")

    def __init__(self, monkeypatch):
        self.calls = 0
        for name in self.NAMES:
            monkeypatch.setattr(np.linalg, name, self._wrap(getattr(np.linalg, name)))

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
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
    L = matrix_map(rng.standard_normal((9, 6)))
    f = QuadraticTerm(0.7, rng.standard_normal(6))
    g = cat.weighted_l1(np.full(9, 0.2))
    counter = _LinalgCounter(monkeypatch)
    counts = []
    for iterations in (50, 150):
        before = counter.calls
        res = admm(f, L, g, stop=_capped(iterations))
        assert res.iterations == iterations
        counts.append(counter.calls - before)
    assert counts[0] == counts[1] <= 2


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
