import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from proxsplit import catalog as cat
from proxsplit import sets
from proxsplit.core import (
    InvalidInputError,
    InvalidParameterError,
    LinearMap,
    SmoothFn,
    as_vector,
    check_adjoint,
    firm_nonexpansiveness_violation,
    gradient_check_error,
    identity_map,
    matrix_map,
    operator_norm,
    subgradient_certificate,
)


class TestVectors:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            as_vector([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            as_vector([np.inf])

    def test_dimension_check(self):
        with pytest.raises(InvalidInputError):
            as_vector([1.0, 2.0], dim=3)

    def test_scalar_promotes(self):
        assert as_vector(2.0).shape == (1,)


class TestProxOf:
    def test_box_projection(self):
        f = sets.indicator(sets.Box([0.0], [1.0]))
        assert f.prox(1.0, [2.0])[0] == pytest.approx(1.0)

    def test_fixed_point_at_minimizer(self):
        f = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)  # |t|, minimized at 0
        assert f.prox(1.0, [0.0])[0] == 0.0

    def test_soft_threshold(self):
        f = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)
        assert f.prox(1.0, [3.0])[0] == pytest.approx(2.0)

    def test_rejects_nonfinite_input(self):
        f = cat.zero_fn(2)
        with pytest.raises(InvalidInputError):
            f.prox(1.0, [np.nan, 0.0])

    def test_rejects_bad_gamma(self):
        f = cat.zero_fn(1)
        for gamma in (-1.0, 0.0, np.inf, np.nan, True, "2"):
            with pytest.raises(InvalidParameterError, match="prox scale"):
                f.prox(gamma, [0.5])


class TestSubgradientCertificate:
    def test_box_indicator(self):
        f = sets.indicator(sets.Box([0.0], [1.0]))
        v = subgradient_certificate(f, [2.0], [1.0], ys=[[0.0], [0.5], [1.0]])
        assert v <= 1e-12

    def test_abs_correct_prox(self):
        f = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)
        v = subgradient_certificate(f, [3.0], [2.0], ys=[[-1.0], [0.0], [5.0]])
        assert v <= 1e-12

    def test_abs_wrong_prox_flagged(self):
        f = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)
        v = subgradient_certificate(f, [3.0], [2.5], ys=[[2.0]])
        assert v > 0.0


# entries below 1e-6 are set to 0, so that no square in L^T L underflows
_ENTRIES = st.floats(-10.0, 10.0).map(lambda t: t if abs(t) >= 1e-6 else 0.0)


@st.composite
def _matrices(draw):
    """Matrices of up to 12 x 30, full or drawn as a product of rank 0 to 4."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    if draw(st.booleans()):
        return draw(arrays(np.float64, (rows, cols), elements=_ENTRIES))
    rank = draw(st.integers(0, 4))
    U = draw(arrays(np.float64, (rows, rank), elements=_ENTRIES))
    return U @ draw(arrays(np.float64, (rank, cols), elements=_ENTRIES))


class TestOperatorNorm:
    @given(A=_matrices())
    @example(A=np.zeros((3, 5)))
    @example(A=np.arange(1.0, 31.0).reshape(1, 30))
    @example(A=np.arange(1.0, 13.0).reshape(12, 1))
    @example(A=np.outer(np.arange(1.0, 13.0), np.arange(30.0)))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_spectral_norm(self, A):
        exact = np.linalg.norm(A, 2)
        got = operator_norm(matrix_map(A))
        assert abs(got - exact) <= 1e-12 * exact
        # a Ritz value is a lower bound up to rounding; np.linalg.norm is itself a few ulp off
        assert got <= exact + 16 * np.spacing(exact)

    def test_identity(self):
        assert operator_norm(identity_map(3)) == pytest.approx(1.0, rel=1e-8)

    def test_diagonal(self):
        L = matrix_map(np.diag([3.0, 1.0]))
        assert operator_norm(L) == pytest.approx(3.0, rel=1e-8)

    def test_nilpotent(self):
        L = matrix_map(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert operator_norm(L) == pytest.approx(2.0, rel=1e-8)

    def test_zero_map(self):
        L = matrix_map(np.zeros((2, 2)))
        assert operator_norm(L) == 0.0

    def test_deterministic(self):
        # two maps built apart: one map would read the second value from its memo
        A = np.random.default_rng(4).standard_normal((5, 4))
        assert operator_norm(matrix_map(A), seed=7) == operator_norm(matrix_map(A.copy()), seed=7)


class TestAdjoint:
    def test_consistent_matrix(self):
        rng = np.random.default_rng(0)
        L = matrix_map(rng.standard_normal((4, 3)))
        assert check_adjoint(L) <= 1e-12

    def test_wrong_adjoint_detected(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        L = LinearMap(2, 2, lambda x: A @ x, lambda u: A @ u)  # adjoint should be A.T
        assert check_adjoint(L) > 1e-3

    def test_zero_map(self):
        L = matrix_map(np.zeros((3, 2)))
        assert check_adjoint(L) == 0.0


class TestTightFrameDeclaration:
    def test_valid(self):
        matrix_map(np.sqrt(2.0) * np.eye(2), tight_frame_nu=2.0)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidParameterError):
            matrix_map(np.array([[1.0, 0.5], [0.0, 1.0]]), tight_frame_nu=1.0)


class TestSmoothInterface:
    def test_gradient_check(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 3))
        y = rng.standard_normal(4)
        f = SmoothFn(
            dim=3,
            value=lambda x: 0.5 * float(np.linalg.norm(A @ x - y) ** 2),
            grad_impl=lambda x: A.T @ (A @ x - y),
            lipschitz=float(np.linalg.norm(A, 2) ** 2),
        )
        for _ in range(5):
            assert gradient_check_error(f, rng.standard_normal(3)) <= 1e-7

    def test_distance_smoother_gradient(self):
        from proxsplit import sets
        from proxsplit.problems import set_distance_smooth

        f = set_distance_smooth(sets.Ball(np.zeros(2), 1.0))
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(2) * 3
            assert gradient_check_error(f, x) <= 1e-5

    def test_lipschitz_sampled(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 3))
        beta = float(np.linalg.norm(A, 2) ** 2)
        f = SmoothFn(
            dim=3,
            value=lambda x: 0.5 * float(x @ (A.T @ A @ x)),
            grad_impl=lambda x: A.T @ (A @ x),
            lipschitz=beta,
        )
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert np.linalg.norm(f.grad(x) - f.grad(y)) <= beta * np.linalg.norm(x - y) + 1e-12

    def test_smooth_prox_characterization(self):
        # for differentiable f, x - p = gamma * grad f(p) at p = prox(gamma, x)
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3)) * 0.5
        y = rng.standard_normal(3)
        L = matrix_map(A)
        fprox = cat.quadratic(L, y, weight=1.0)
        fsmooth = SmoothFn(
            dim=3,
            value=lambda x: 0.5 * float(np.linalg.norm(A @ x - y) ** 2),
            grad_impl=lambda x: A.T @ (A @ x - y),
            lipschitz=float(np.linalg.norm(A, 2) ** 2),
        )
        for _ in range(10):
            x = rng.standard_normal(3)
            gamma = float(rng.uniform(0.3, 2.0))
            p = fprox.prox(gamma, x)
            assert np.linalg.norm(x - p - gamma * fsmooth.grad(p)) <= 1e-10


class TestFirmNonexpansiveness:
    def test_catalog_samples(self):
        rng = np.random.default_rng(5)
        fns = [
            cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2),
            sets.indicator(sets.Ball(np.zeros(2), 1.0)),
            cat.separable(cat.Entropy(), dim=2),
        ]
        for f in fns:
            for _ in range(50):
                x, y = rng.standard_normal(2) * 3, rng.standard_normal(2) * 3
                assert firm_nonexpansiveness_violation(f, x, y, gamma=1.0) <= 1e-9
