import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import InfeasibleBracketError, scalar_prox_oracle
from proxsplit.scalar import (
    Bracket,
    BracketingError,
    lambert_w_exp,
    solve_monotone,
)


def bisect_w(target_c: float) -> float:
    # independent oracle for w + ln(w) = c, plain bisection
    lo, hi = 1e-300, 1.0
    while hi + math.log(hi) < target_c:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + math.log(mid) < target_c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveMonotone:
    def test_linear(self):
        assert solve_monotone(lambda p: p - 2.0, Bracket(0.0, 10.0), lambda p: np.ones_like(p)) == pytest.approx(2.0, abs=1e-11)

    def test_quadratic(self):
        # roots of 3p^2 + p - 4 = 0; positive root is 1
        root = solve_monotone(lambda p: p + 3.0 * p * p - 4.0, Bracket(0.0, 10.0), lambda p: 1.0 + 6.0 * p)
        assert root == pytest.approx(1.0, abs=1e-11)

    def test_cubic(self):
        assert solve_monotone(lambda p: p**3 - 8.0, Bracket(0.0, 10.0), lambda p: 3.0 * p * p) == pytest.approx(2.0, abs=1e-11)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketingError):
            solve_monotone(lambda p: p * p + 1.0, Bracket(-1.0, 1.0), lambda p: 2.0 * p)

    def test_infinite_derivative_still_converges(self):
        # every Newton step is 0, so every Newton point equals p and is probed;
        # probes of length 0 must not stand in for bisection indefinitely
        dg = lambda p: np.full_like(p, math.inf)
        root = solve_monotone(lambda p: p - 1.0, Bracket(0.0, 5.0), dg)
        assert root == pytest.approx(1.0, abs=1e-13)

    def test_a_root_not_found_in_200_steps_raises(self):
        # a tiny derivative sends every Newton step out of the bracket, and
        # bisecting element 1 from a width of 1e300 down to 1e-14 takes over 1,000
        # steps: the error names its bracket after 200 halvings, 1e300 / 2^200
        with pytest.raises(BracketingError, match=r"no root found in 200 steps on \[0\.0, 6\.223\d*e\+239\]"):
            solve_monotone(lambda p: p - 1.0, Bracket(np.zeros(2), np.array([10.0, 1e300])), lambda p: np.full_like(p, 1e-300))

    def test_decreasing_orientation(self):
        # g must increase across the bracket: g(lo) <= 0 <= g(hi)
        with pytest.raises(BracketingError, match=r"\[0\.0, 10\.0\]"):
            solve_monotone(lambda p: 3.0 - p, Bracket(0.0, 10.0), lambda p: -np.ones_like(p))

    @given(
        root=st.floats(-50.0, 50.0),
        slope=st.floats(0.1, 10.0),
        lo=st.floats(-60.0, -51.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bracket_enlargement_invariance(self, root, slope, lo):
        g, dg = lambda p: slope * (p - root), lambda p: np.full_like(p, slope)
        a = solve_monotone(g, Bracket(lo, 60.0), dg)
        b = solve_monotone(g, Bracket(2 * lo, 120.0), dg)
        assert abs(a - b) <= 1e-9

    @given(
        c0=st.floats(0.05, 5.0),
        c1=st.floats(0.05, 5.0),
        target=st.floats(-20.0, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_cubic_family(self, c0, c1, target):
        g = lambda p: c0 * p**3 + c1 * p - target
        root = solve_monotone(g, Bracket(-10.0, 10.0), lambda p: 3.0 * c0 * p * p + c1)
        assert abs(g(root)) <= 1e-9


class TestLambert:
    def test_w_of_one(self):
        # x = 1: W(e^0) = W(1)
        assert lambert_w_exp(1.0) == pytest.approx(0.5671432904097838, rel=1e-12)

    def test_exact_point(self):
        # w = 2 gives w*e^w = 2e^2 = e^(x-1) at x = 3 + ln 2
        assert lambert_w_exp(3.0 + math.log(2.0)) == pytest.approx(2.0, rel=1e-12)

    def test_large_argument_against_bisection(self):
        x = 50.0
        assert lambert_w_exp(x) == pytest.approx(bisect_w(x - 1.0), abs=1e-9)

    @pytest.mark.parametrize("x", np.linspace(-20.0, 100.0, 41).tolist())
    def test_defining_identity(self, x):
        w = lambert_w_exp(x)
        # w * e^w = e^(x-1), compared in log space for large x
        assert math.log(w) + w == pytest.approx(x - 1.0, abs=1e-10 * max(1.0, abs(x)))

    @given(x=st.floats(-20.0, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_identity_property(self, x):
        w = lambert_w_exp(x)
        assert w > 0.0
        assert abs(math.log(w) + w - (x - 1.0)) <= 1e-10 * max(1.0, abs(x))


class TestScalarProxOracle:
    def test_interval_indicator(self):
        phi = lambda p: 0.0 if 0.0 <= p <= 1.0 else math.inf
        assert scalar_prox_oracle(phi, 2.0, Bracket(0.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_abs(self):
        assert scalar_prox_oracle(abs, 3.0, Bracket(-4.0, 4.0)) == pytest.approx(2.0, abs=1e-7)

    def test_quadratic(self):
        # kappa=1, q=2: p + 2p = 3 -> 1
        phi = lambda p: p * p
        assert scalar_prox_oracle(phi, 3.0, Bracket(-4.0, 4.0)) == pytest.approx(1.0, abs=1e-7)

    def test_infeasible(self):
        with pytest.raises(InfeasibleBracketError):
            scalar_prox_oracle(lambda p: math.inf, 0.0, Bracket(-1.0, 1.0))

    def test_narrow_domain_right_edge(self):
        # feasible window near the right end of the bracket must not be lost
        phi = lambda p: 0.0 if 3.5 <= p <= 3.9 else math.inf
        assert scalar_prox_oracle(phi, 0.0, Bracket(-4.0, 4.0)) == pytest.approx(3.5, abs=1e-9)
