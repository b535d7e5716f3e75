import math

import numpy as np
import pytest

from helpers import calculus_rule_errors, catalog_zoo, grid_prox_2d
from proxsplit import catalog as cat
from proxsplit import sets
from proxsplit.core import (
    InvalidParameterError,
    PreconditionError,
    matrix_map,
    identity_map,
    subgradient_certificate,
)

RULE_ERRORS = calculus_rule_errors(seed=0)


@pytest.mark.parametrize("rule", sorted(RULE_ERRORS))
def test_rule_against_oracle(rule):
    assert RULE_ERRORS[rule] <= 1e-6, f"{rule}: {RULE_ERRORS[rule]:.3e}"


def test_all_sixteen_rules_covered():
    assert len(RULE_ERRORS) == 16


class TestAffineCalculus:
    def test_translation_shifts_projection(self):
        base = cat.separable(cat.Interval(0.0, 1.0), dim=1)
        f = cat.translated(base, [5.0])  # indicator of [5, 6]
        assert f.prox(1.0, [7.0])[0] == pytest.approx(6.0)
        assert f.eval([5.5]) == 0.0
        assert f.eval([4.0]) == np.inf

    def test_reflection_antisymmetry(self):
        base = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)
        f = cat.reflected(base)
        x = np.array([3.0])
        assert f.prox(1.0, x)[0] == pytest.approx(-base.prox(1.0, -x)[0])

    def test_negative_scaling_equals_reflection(self):
        base = cat.separable(cat.LinearNonneg(0.7), dim=1)
        assert cat.arg_scaled(base, -1.0).prox(1.3, [2.0])[0] == pytest.approx(
            cat.reflected(base).prox(1.3, [2.0])[0]
        )

    @pytest.mark.parametrize("rho", (1e200, -1e200, 1e-200))
    def test_a_scale_whose_square_leaves_the_float_range_is_named(self, rho):
        # rho**2 of a float raises OverflowError past about 1.3e154
        with pytest.raises(InvalidParameterError, match="rho must be != 0 with a finite square"):
            cat.arg_scaled(cat.separable(cat.LinearNonneg(0.7), dim=1), rho)

    def test_quadratic_perturbation_example(self):
        # alpha=1, u=0, offset=0 on |.|: prox at 4 equals prox_{|.|/2}(2) = 1.5
        base = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)
        f = cat.quad_perturbed(base, alpha=1.0)
        assert f.prox(1.0, [4.0])[0] == pytest.approx(1.5)

    def test_zero_rho_rejected(self):
        with pytest.raises(InvalidParameterError):
            cat.arg_scaled(cat.zero_fn(1), 0.0)


class TestConjugation:
    def test_interval_conjugate_is_abs(self):
        f = cat.separable(cat.Interval(-1.0, 1.0), dim=1)
        conj = cat.conjugate(f)
        assert conj.prox(1.0, [3.0])[0] == pytest.approx(2.0)

    def test_moreau_decomposition_exact(self):
        rng = np.random.default_rng(0)
        for f in catalog_zoo():
            conj = cat.conjugate(f)
            for _ in range(10):
                x = rng.standard_normal(f.dim) * 2
                assert np.max(np.abs(f.prox(1.0, x) + conj.prox(1.0, x) - x)) <= 1e-12

    def test_numeric_conjugate_value(self):
        box = sets.Box(-np.ones(2), np.ones(2))
        conj = cat.conjugate(sets.indicator(box))  # value = support of the box
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = rng.standard_normal(2)
            assert conj.eval(u) == pytest.approx(box.support(u), abs=1e-8)

    def test_numeric_conjugate_detects_unbounded(self):
        # conjugate of the zero function is the indicator of {0}
        conj = cat.conjugate(cat.zero_fn(1))
        assert conj.eval([0.5]) == np.inf
        assert conj.eval([0.0]) == pytest.approx(0.0, abs=1e-10)

    def test_numeric_conjugate_with_a_prox_far_from_0(self):
        # f(x) = (x - 1e12)^2/2 has f*(u) = 1e12*u + u^2/2, and the fixed
        # point w = 1e12 + 2u lies far from 0
        conj = cat.conjugate(cat.quadratic_deviation([1e12]))
        assert conj.eval([1.0]) == 1e12 + 0.5
        value = conj.eval([0.0])
        assert math.isfinite(value) and abs(value) <= 1e-5
        # a point outside dom f* (the box [-1, 1]^2) still reads +inf
        assert cat.conjugate(cat.weighted_l1([1.0, 1.0])).eval([2.0, 0.0]) == math.inf


class TestMoreau:
    def test_squared_distance_example(self):
        f = cat.squared_distance(sets.indicator(sets.Box([0.0], [1.0])))
        assert f.prox(1.0, [3.0])[0] == pytest.approx(2.0)

    def test_envelope_of_indicator_is_squared_distance(self):
        env = cat.moreau_envelope(cat.separable(cat.Interval(0.0, 1.0), dim=1))
        sqd = cat.squared_distance(sets.indicator(sets.Box([0.0], [1.0])))
        assert env.prox(1.0, [3.0])[0] == pytest.approx(sqd.prox(1.0, [3.0])[0], abs=1e-12)
        assert env.eval([3.0]) == pytest.approx(2.0)  # d^2/2 = 4/2

    def test_complement_fixes_origin_for_even_base(self):
        f = cat.moreau_complement(cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1))
        assert f.prox(1.0, [0.0])[0] == pytest.approx(0.0)

    def test_squared_distance_requires_indicator(self):
        with pytest.raises(InvalidParameterError):
            cat.squared_distance(cat.zero_fn(2))


class TestSemiOrthogonal:
    def test_identity_reduces_to_base(self):
        base = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=3)
        f = cat.tight_frame_compose(base, identity_map(3))
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(3) * 2
            gamma = float(rng.uniform(0.3, 3.0))
            assert np.max(np.abs(f.prox(gamma, x) - base.prox(gamma, x))) <= 1e-12

    def test_scaled_identity_against_oracle(self):
        L = matrix_map(math.sqrt(2.0) * np.eye(2), tight_frame_nu=2.0)
        base = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2)
        f = cat.tight_frame_compose(base, L)
        x = np.array([3.0, -0.4])
        assert np.max(np.abs(f.prox(1.0, x) - grid_prox_2d(f, x, 1.0))) <= 1e-6

    def test_row_sum_example(self):
        # |x1 + x2| at (2, 0): shrink the diagonal component fully
        L = matrix_map(np.array([[1.0, 1.0]]), tight_frame_nu=2.0)
        f = cat.tight_frame_compose(cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1), L)
        assert np.allclose(f.prox(1.0, [2.0, 0.0]), [1.0, -1.0])

    def test_requires_declared_frame(self):
        base = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2)
        with pytest.raises(PreconditionError):
            cat.tight_frame_compose(base, matrix_map(np.eye(2)))


class TestQuadraticLoss:
    def test_identity_halving(self):
        f = cat.quadratic(identity_map(3), np.zeros(3), weight=1.0)
        x = np.array([2.0, -4.0, 1.0])
        assert np.allclose(f.prox(1.0, x), x / 2.0)

    def test_zero_operator_identity_prox(self):
        f = cat.quadratic(matrix_map(np.zeros((2, 3))), np.zeros(2), weight=1.0)
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(f.prox(1.0, x), x)

    def test_linear_system_residual(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        w = 1.4
        f = cat.quadratic(matrix_map(A), y, weight=w)
        for _ in range(10):
            x = rng.standard_normal(3)
            gamma = float(rng.uniform(0.3, 3.0))
            p = f.prox(gamma, x)
            c = gamma * w
            res = (np.eye(3) + c * A.T @ A) @ p - (x + c * A.T @ y)
            assert np.linalg.norm(res) <= 1e-10


class TestDistanceFamily:
    def test_scaled_distance_point_branches(self):
        f = cat.scaled_distance(sets.point([0.0]), weight=1.0)
        assert f.prox(1.0, [3.0])[0] == pytest.approx(2.0)  # outside: move by gamma*w
        assert f.prox(1.0, [0.5])[0] == pytest.approx(0.0)  # inside threshold: project

    def test_support_of_box_is_coordinate_soft(self):
        C = sets.Box(-np.ones(3), np.ones(3))
        f = cat.support_function(C)
        x = np.array([2.0, -0.5, -4.0])
        assert np.allclose(f.prox(1.0, x), [1.0, 0.0, -3.0])

    def test_distance_penalty_quadratic_case(self):
        f = cat.distance_penalty(sets.point(np.zeros(2)), cat.PowerAbs(0.5, 2.0))
        x = np.array([3.0, -1.0])
        assert np.allclose(f.prox(1.0, x), x / 2.0)

    def test_evenness_enforced(self):
        with pytest.raises(InvalidParameterError):
            cat.distance_penalty(sets.point(np.zeros(2)), cat.LinearNonneg(1.0))

    def test_block_soft_threshold(self):
        f = cat.support_plus_radial(sets.point(np.zeros(2)), cat.IntervalSupport(-1.0, 1.0))
        assert np.allclose(f.prox(1.0, [3.0, 4.0]), [3.0 * 0.8, 4.0 * 0.8])
        assert np.allclose(f.prox(1.0, [0.3, 0.4]), [0.0, 0.0])


class TestScaled:
    def test_folds_into_prox_scale(self):
        base = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)
        f = cat.scaled(base, 3.0)  # 3*|t|
        assert f.prox(1.0, [5.0])[0] == pytest.approx(2.0)
        assert f.eval([2.0]) == pytest.approx(6.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            cat.scaled(cat.zero_fn(1), 0.0)


class TestStacked:
    def test_blockwise(self):
        f = cat.stacked(
            [cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2), sets.indicator(sets.Box([0.0], [1.0]))]
        )
        p = f.prox(1.0, [3.0, -0.5, 2.0])
        assert np.allclose(p, [2.0, 0.0, 1.0])
        assert f.eval([1.0, 0.0, 0.5]) == pytest.approx(1.0)


def test_every_catalog_constructor_passes_certificate():
    rng = np.random.default_rng(10)
    for f in catalog_zoo():
        for _ in range(25):
            x = rng.standard_normal(f.dim) * 2
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            p = f.prox(gamma, x)
            v = subgradient_certificate(f, x, p, samples=48, gamma=gamma, radius=0.75, seed=17)
            assert v <= 1e-9, f"{f.name}: certificate {v:.3e}"
