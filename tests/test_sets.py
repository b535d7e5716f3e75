import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit import sets
from proxsplit.core import InvalidParameterError


ALL_SETS = [
    sets.Box(np.array([0.0, -1.0]), np.array([1.0, 2.0])),
    sets.Halfspace(np.array([1.0, 1.0]), 0.0),
    sets.Hyperplane(np.array([1.0, -1.0]), 0.5),
    sets.Ball(np.array([0.5, 0.5]), 1.2),
    sets.orthant(2),
    sets.AffineSubspace(np.array([[1.0, 2.0]]), np.array([1.0])),
]


class TestProjections:
    def test_box(self):
        C = sets.Box(np.zeros(2), np.ones(2))
        assert np.allclose(C.project([2.0, 0.5]), [1.0, 0.5])

    @pytest.mark.parametrize("n", (1, 2, 3, 7, 16, 17, 200))
    def test_box_gives_the_bytes_of_clip(self, n):
        # signed zeros on both sides of zero bounds, infinite bounds, stacks
        rng = np.random.default_rng(n)
        zeros = np.array([0.0, -0.0])
        lo = np.where(rng.random(n) < 0.3, rng.choice(zeros, n), -rng.random(n))
        hi = np.where(rng.random(n) < 0.3, rng.choice(zeros, n) + np.maximum(lo, 0.0), rng.random(n))
        lo[rng.random(n) < 0.2] = -np.inf
        hi[rng.random(n) < 0.2] = np.inf
        C = sets.Box(lo, hi)
        for _ in range(5):
            x = np.where(rng.random(n) < 0.4, rng.choice(zeros, n), 2.0 * rng.standard_normal(n))
            assert C.project(x).tobytes() == np.clip(x, lo, hi).tobytes()
            X = np.where(rng.random((4, n)) < 0.4, rng.choice(zeros, (4, n)), rng.standard_normal((4, n)))
            assert C.project(X).tobytes() == np.clip(X, lo, hi).tobytes()

    def test_halfspace(self):
        C = sets.Halfspace(np.array([1.0, 1.0]), 0.0)
        assert np.allclose(C.project([1.0, 1.0]), [0.0, 0.0])
        assert np.allclose(C.project([-1.0, 0.0]), [-1.0, 0.0])  # already inside

    def test_ball(self):
        C = sets.Ball(np.zeros(2), 1.0)
        assert np.allclose(C.project([3.0, 4.0]), [0.6, 0.8])

    def test_hyperplane_residual(self):
        C = sets.Hyperplane(np.array([2.0, -1.0]), 3.0)
        p = C.project([5.0, 5.0])
        assert abs(2.0 * p[0] - p[1] - 3.0) <= 1e-12

    def test_affine(self):
        C = sets.AffineSubspace(np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([2.0, 0.0]))
        assert np.allclose(C.project([9.0, -3.0]), [1.0, 1.0])

    @pytest.mark.parametrize("C", ALL_SETS)
    def test_idempotent_and_member(self, C):
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.standard_normal(2) * 3
            p = C.project(x)
            assert C.contains(p)
            assert np.linalg.norm(C.project(p) - p) <= 1e-9

    @pytest.mark.parametrize("C", ALL_SETS)
    def test_nearest_point(self, C):
        # no sampled member of the set is closer than the projection
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(2) * 3
            p = C.project(x)
            dp = np.linalg.norm(x - p)
            for _ in range(20):
                y = C.project(rng.standard_normal(2) * 4)
                assert dp <= np.linalg.norm(x - y) + 1e-9

    @pytest.mark.parametrize("C", ALL_SETS)
    def test_firmly_nonexpansive(self, C):
        rng = np.random.default_rng(2)
        f = sets.indicator(C)
        for _ in range(40):
            x, y = rng.standard_normal(2) * 3, rng.standard_normal(2) * 3
            px, py = f.prox(1.0, x), f.prox(1.0, y)
            lhs = np.linalg.norm(px - py) ** 2 + np.linalg.norm((x - px) - (y - py)) ** 2
            assert lhs <= np.linalg.norm(x - y) ** 2 + 1e-9


class TestConstructionErrors:
    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidParameterError):
            sets.Halfspace(np.zeros(2), 1.0)
        with pytest.raises(InvalidParameterError):
            sets.Hyperplane(np.zeros(3), 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidParameterError):
            sets.Ball(np.zeros(2), -0.5)

    def test_crossed_box_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            sets.Box(np.array([1.0]), np.array([0.0]))

    def test_empty_affine_rejected(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            sets.AffineSubspace(A, np.array([0.0, 1.0]))


class TestIndicator:
    def test_scale_invariance(self):
        f = sets.indicator(sets.Box([0.0], [1.0]))
        for gamma in (0.25, 1.0, 7.0):
            assert f.prox(gamma, [2.0])[0] == pytest.approx(1.0)

    def test_interior_point_fixed(self):
        f = sets.indicator(sets.Ball(np.zeros(2), 1.0))
        x = np.array([0.3, -0.2])
        assert np.allclose(f.prox(1.0, x), x)

    def test_hyperplane_prox_residual(self):
        C = sets.Hyperplane(np.array([1.0, 2.0]), 1.0)
        f = sets.indicator(C)
        p = f.prox(3.0, [4.0, -1.0])
        assert abs(p @ np.array([1.0, 2.0]) - 1.0) <= 1e-12

    def test_eval(self):
        f = sets.indicator(sets.Box([0.0], [1.0]))
        assert f.eval([0.5]) == 0.0
        assert f.eval([2.0]) == np.inf


class TestSupportValues:
    def test_box(self):
        C = sets.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        assert C.support(np.array([1.0, 1.0])) == pytest.approx(3.0)
        assert C.support(np.array([-1.0, -1.0])) == pytest.approx(1.0)

    def test_ball(self):
        C = sets.Ball(np.array([1.0, 0.0]), 2.0)
        assert C.support(np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_halfspace_unbounded_direction(self):
        C = sets.Halfspace(np.array([1.0, 0.0]), 1.0)
        assert C.support(np.array([0.0, 1.0])) == np.inf
        assert C.support(np.array([2.0, 0.0])) == pytest.approx(2.0)

    def test_orthant(self):
        C = sets.orthant(2)
        assert C.support(np.array([-1.0, -2.0])) == 0.0
        assert C.support(np.array([1.0, -1.0])) == np.inf


class TestDistanceIdentity:
    def test_squared_distance_matches_catalog(self):
        # d_C(x)^2/2 value and its prox through the half-sum formula
        C = sets.Box(np.zeros(2), np.ones(2))
        f = cat.squared_distance(sets.indicator(C))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(2) * 2
            assert f.eval(x) == pytest.approx(0.5 * C.distance(x) ** 2, abs=1e-12)
            assert np.allclose(f.prox(1.0, x), 0.5 * (x + C.project(x)))
