import dataclasses
import math
import warnings

import numpy as np
import pytest

from helpers import KIND_NAMES, closed_form_prox_decimal, draw_case, oracle_prox, scalar_kind_max_error
from proxsplit import catalog as cat
from proxsplit.core import InvalidInputError, InvalidParameterError
from proxsplit.scalar import Bracket


class TestClosedForms:
    def test_interval_clamp(self):
        k = cat.Interval(0.0, 1.0)
        assert k.prox(2.0) == 1.0
        assert k.prox(-3.0, gamma=5.0) == 0.0
        assert k.prox(0.4) == 0.4

    def test_support_soft_threshold(self):
        k = cat.IntervalSupport(-2.0, 2.0)
        assert k.prox(3.0) == pytest.approx(1.0)
        assert k.prox(1.5) == 0.0
        assert k.prox(-1.0) == 0.0
        assert k.prox(-3.5) == pytest.approx(-1.5)

    def test_asymmetric_support(self):
        # support of [0, 2]: slope 0 on the left, 2 on the right
        k = cat.IntervalSupport(0.0, 2.0)
        assert k.prox(3.0) == pytest.approx(1.0)
        assert k.prox(-1.0) == pytest.approx(-1.0)

    def test_deadzone_branches(self):
        k = cat.Deadzone(1.0)
        assert k.prox(0.5) == 0.5
        assert k.prox(1.5) == pytest.approx(1.0)  # within [omega, omega + gamma]
        assert k.prox(3.0) == pytest.approx(2.0)
        assert k.prox(-3.0) == pytest.approx(-2.0)

    def test_power_abs_quadratic(self):
        # kappa=1, q=2: p + 2p = 3 -> 1
        k = cat.PowerAbs(1.0, 2.0)
        assert k.prox(3.0) == pytest.approx(1.0, abs=1e-10)

    def test_smooth_plus_support_chain(self):
        # psi = t^2/2 and sigma_[-1,1]: prox = soft(x)/(1+gamma)
        k = cat.SmoothPlusSupport(cat.PowerAbs(0.5, 2.0), -1.0, 1.0)
        assert k.prox(3.0) == pytest.approx(1.0, abs=1e-10)

    def test_linear_nonneg(self):
        k = cat.LinearNonneg(1.0)
        assert k.prox(3.0) == pytest.approx(2.0)
        assert k.prox(0.5) == 0.0
        assert k.prox(-2.0) == 0.0

    def test_entropy_at_one(self):
        assert cat.Entropy().prox(1.0) == pytest.approx(0.5671432904097838, rel=1e-10)

    def test_huber_branches(self):
        k = cat.Huber(1.0, 1.0)
        # |x| <= omega(2k+1)/sqrt(2k): x/(2k+1)
        assert k.prox(1.5) == pytest.approx(0.5)
        assert k.prox(4.0) == pytest.approx(4.0 - math.sqrt(2.0))

    def test_log_quadratic_positive(self):
        k = cat.LogQuadratic(1.0, 0.0, 0.0)
        # p - x = kappa/p -> p^2 - xp - 1 = 0 at gamma=1
        x = 2.0
        expected = 0.5 * (x + math.sqrt(x * x + 4.0))
        assert k.prox(x) == pytest.approx(expected, rel=1e-12)


CLOSED_FORMS = [
    cat.AbsMinusLog(1.0),
    cat.AbsMinusLog(1.3),
    cat.LogQuadratic(1.0, 0.5, 0.5),
    cat.LogQuadratic(0.9, 0.0, -0.3),
    cat.LogQuadratic(1e-30),  # its root at t = -1e300 is below the smallest float
    cat.LogThreshold(-1.0, 1.0),
    cat.LogThreshold(-0.7, 1.2),
]
LARGE_POINTS = (1e16, -1e16, 1e155, -1e155, 1e300, -1e300)


@pytest.mark.parametrize("kind", CLOSED_FORMS, ids=repr)
@pytest.mark.parametrize("gamma", (0.25, 1.0, 4.0))
def test_closed_forms_at_large_points_match_the_decimal_reference(kind, gamma):
    for t in LARGE_POINTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = kind.prox(t, gamma)
        ref = closed_form_prox_decimal(kind, t, gamma)
        assert abs(p - ref) <= 4 * np.spacing(abs(ref)), (t, p, ref)
        # inside the open domain, not on its end (a value may still overflow to +inf)
        if isinstance(kind, cat.LogQuadratic):
            assert p > 0.0, (t, p)
        elif isinstance(kind, cat.LogThreshold):
            assert kind.lo < p < kind.hi, (t, p)
        else:
            assert math.isfinite(p), (t, p)


@pytest.mark.parametrize("kind", CLOSED_FORMS, ids=repr)
@pytest.mark.parametrize("gamma", (0.25, 1.0, 4.0))
def test_closed_forms_near_zero_match_the_decimal_reference(kind, gamma):
    eps = np.finfo(float).eps
    for t in np.linspace(-6.0, 6.0, 241).tolist():
        p, ref = kind.prox(t, gamma), closed_form_prox_decimal(kind, t, gamma)
        if isinstance(kind, cat.LogThreshold):
            # by a threshold the root is near 0, and the rounding of t*lo or
            # t*hi (and of gamma/lo or gamma/hi) bounds its error
            assert abs(p - ref) <= 4 * np.spacing(abs(ref)) + 8 * eps * max(1.0, abs(t)), (t, p, ref)
        else:
            assert abs(p - ref) <= 4 * np.spacing(abs(ref)), (t, p, ref)


class TestLogThreshold:
    def test_dead_zone(self):
        k = cat.LogThreshold(-2.0, 1.0)
        # thresholds over [1/lo, 1/hi] = [-0.5, 1.0]
        assert k.prox(-0.5) == 0.0
        assert k.prox(0.0) == 0.0
        assert k.prox(1.0) == 0.0

    def test_outputs_stay_inside(self):
        k = cat.LogThreshold(-2.0, 1.0)
        for x in np.linspace(-40.0, 40.0, 401):
            p = k.prox(float(x))
            assert -2.0 < p < 1.0

    def test_asymptotes(self):
        k = cat.LogThreshold(-2.0, 1.0)
        assert k.prox(-1e8) == pytest.approx(-2.0, abs=1e-6)
        assert k.prox(1e8) == pytest.approx(1.0, abs=1e-6)

    def test_branch_signs(self):
        # x below the lower threshold lands in ]lo, 0]
        k = cat.LogThreshold(-2.0, 1.0)
        p = k.prox(-3.0)
        assert -2.0 < p <= 0.0
        p = k.prox(5.0)
        assert 0.0 < p < 1.0


class TestParameterValidation:
    def test_interval_needs_order(self):
        with pytest.raises(InvalidParameterError):
            cat.Interval(1.0, 0.0)

    def test_power_needs_q_above_one(self):
        with pytest.raises(InvalidParameterError):
            cat.PowerAbs(1.0, 1.0)

    def test_positive_weights(self):
        with pytest.raises(InvalidParameterError):
            cat.Deadzone(0.0)
        with pytest.raises(InvalidParameterError):
            cat.LogQuadratic(-1.0)

    def test_barrier_needs_a_float_inside(self):
        # one float wide: both bracket ends would round onto the poles
        for lo, hi in ((1.0, 0.5), (1.0, 1.0), (1.0, math.nextafter(1.0, 2.0))):
            with pytest.raises(InvalidParameterError, match=r"barrier needs a float in \]lo, hi\["):
                cat.IntervalLogBarrier(lo, hi, 1.0, 1.0)
        hi = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
        for t in (-1e300, 1.0, 1e300):
            assert 1.0 < cat.IntervalLogBarrier(1.0, hi, 1.0, 1.0).prox(t) < hi

    def test_log_threshold_needs_zero_inside(self):
        with pytest.raises(InvalidParameterError):
            cat.LogThreshold(0.5, 1.0)

    def test_scalar_prox_entry(self):
        with pytest.raises(InvalidParameterError):
            cat.scalar_prox(cat.Entropy(), 1.0, gamma=0.0)
        with pytest.raises(InvalidParameterError):
            cat.scalar_prox(cat.Entropy(), math.inf)


# each kind at the parameters of the CLI's large-point check, with its value at
# +inf and -inf: the expression's own result, which is NaN where two infinite
# terms meet
BOUNDARY_PARAMS = {
    "omega": 1.0, "kappa": 1.0, "k_lo": 1.0, "k_hi": 1.0, "q": 2.0, "tau": 0.5, "alpha": 0.5, "lo": -1.0, "hi": 1.0,
}
VALUES_AT_INF = {
    "neg_root": (-math.inf, math.inf),
    "inverse_power": (0.0, math.inf),
    **dict.fromkeys(("log_quadratic", "log_inverse", "log_power"), (math.nan, math.inf)),
}


@pytest.mark.parametrize("name", sorted(cat.SCALAR_KINDS))
def test_prox_points_and_results_must_be_finite(name):
    cls = cat.SCALAR_KINDS[name]
    kind = cls(**{f.name: cat.Huber(1.0, 1.0) if f.name == "psi" else BOUNDARY_PARAMS[f.name] for f in dataclasses.fields(cls)})
    for t in (math.inf, -math.inf, math.nan, np.array([0.5, -math.inf])):
        with pytest.raises(InvalidParameterError, match="finite"):
            kind.prox(t)
    with np.errstate(invalid="ignore"):  # inf - inf
        values = kind.value(np.array([math.inf, -math.inf]))
    np.testing.assert_array_equal(values, VALUES_AT_INF.get(name, (math.inf, math.inf)))


class _NaNKind(cat.ScalarKind):
    def _prox(self, t, gamma):
        return np.where(t > 0.0, math.nan, t)


def test_a_non_finite_prox_result_is_named():
    assert _NaNKind().prox(-2.0) == -2.0
    with pytest.raises(InvalidInputError, match="_NaNKind prox is not finite"):
        _NaNKind().prox(np.array([-2.0, 3.0]))


@pytest.mark.parametrize("name", KIND_NAMES)
def test_oracle_agreement(name):
    # golden-section reference on 100 randomized (params, x, gamma) draws
    assert scalar_kind_max_error(name, draws=100, seed=0) <= 1e-6


@pytest.mark.parametrize("name", KIND_NAMES)
def test_prox_is_firmly_nonexpansive_scalar(name):
    rng = np.random.default_rng(99)
    for _ in range(40):
        kind, _, g, _ = draw_case(name, rng)
        x, y = float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6))
        px, py = kind.prox(x, g), kind.prox(y, g)
        lhs = (px - py) ** 2 + ((x - px) - (y - py)) ** 2
        assert lhs <= (x - y) ** 2 + 1e-9


def test_unit_scale_oracle_spot_checks():
    rng = np.random.default_rng(7)
    for name in ("deadzone", "neg_root", "inverse_power", "abs_quad_power"):
        for _ in range(10):
            kind, x, _, bracket = draw_case(name, rng)
            assert abs(kind.prox(x, 1.0) - oracle_prox(kind, x, 1.0, bracket)) <= 1e-6


def test_separable_prox_examples():
    box = cat.separable(cat.Interval(0.0, 1.0), dim=2)
    assert np.allclose(box.prox(1.0, [2.0, -1.0]), [1.0, 0.0])

    soft = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2)
    assert np.allclose(soft.prox(1.0, [3.0, -0.5]), [2.0, 0.0])

    mixed = cat.separable([cat.IntervalSupport(-1.0, 1.0), cat.Interval(0.0, 1.0)])
    p = mixed.prox(1.0, [3.0, 2.0])
    assert p[0] == pytest.approx(cat.IntervalSupport(-1.0, 1.0).prox(3.0))
    assert p[1] == pytest.approx(cat.Interval(0.0, 1.0).prox(2.0))
    assert mixed.eval([3.0, 0.5]) == pytest.approx(3.0)  # |3| + 0


def test_weighted_l1():
    f = cat.weighted_l1([1.0, 2.0])
    assert np.allclose(f.prox(1.0, [3.0, 3.0]), [2.0, 1.0])
    assert f.eval([1.0, -1.0]) == pytest.approx(3.0)
