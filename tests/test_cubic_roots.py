"""The closed-form cubic proxes and the fixed-step Lambert W against roots
found apart from the catalog, by bisection in 80-digit decimal arithmetic.

Each reference solves the kind's prox equation with the coefficients that the
kind forms from its float parameters (for instance c = q*gamma*kappa of the
power kinds, rounded as the kind rounds it), exactly from there on, on a
bracket derived here.  Every check runs with warnings raised as errors.
"""

import decimal
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsplit import catalog as cat
from proxsplit.scalar import lambert_w_exp

D = decimal.Decimal
CONTEXT = decimal.Context(prec=80, Emin=-9999, Emax=9999)
TINY = 2.2250738585072014e-308  # the smallest normal float
ULPS = 4.0

# t in +-[1e-300, 1e300] and gamma in [1e-3, 1e3], both log-uniform
POINTS = st.tuples(st.floats(-300.0, 300.0), st.booleans()).map(lambda s: -(10.0 ** s[0]) if s[1] else 10.0 ** s[0])
GAMMAS = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


def _bisect(f, lo, hi):
    """The root of an increasing f on [lo, hi] with 0 < lo < hi and
    f(lo) <= 0 <= f(hi), to 30 digits: geometric midpoints while hi > 2*lo,
    arithmetic ones after."""
    while hi - lo > hi * D("1e-30"):
        mid = (lo * hi).sqrt() if hi > 2 * lo else (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _quiet_prox(kind, t, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return kind.prox(t, gamma)


def _assert_close(p, ref, scale=0.0):
    """p within ULPS ulp of the float nearest ref, or of the larger scale."""
    r = float(ref)
    if abs(r) < TINY:
        return
    assert math.isfinite(p)
    assert abs(p - r) <= ULPS * math.ulp(max(abs(r), scale)), (p, r, abs(p - r) / math.ulp(abs(r)))


def _power_reference(c: float, e: D, a: float):
    """Root of p + c*p^e = a on [min(a/2, (a/2c)^(1/e)), min(a, (a/c)^(1/e))],
    where each term alone bounds it."""
    with decimal.localcontext(CONTEXT):
        c, a = D(c), D(a)
        lo, hi = min(a / 2, (a / 2 / c) ** (1 / e)), min(a, (a / c) ** (1 / e))
        return _bisect(lambda p: p + c * p**e - a, lo, hi)


@given(t=POINTS, gamma=GAMMAS)
@settings(max_examples=300, deadline=None)
def test_power_cubic_matches_a_decimal_bisection(t, gamma):
    kind = cat.PowerAbs(1.2, 2.5)
    p = _quiet_prox(kind, t, gamma)
    assert math.copysign(1.0, p) == math.copysign(1.0, t)
    _assert_close(abs(p), _power_reference(2.5 * gamma * kind.kappa, D("1.5"), abs(t)))


@given(t=POINTS, gamma=GAMMAS)
@settings(max_examples=300, deadline=None)
def test_neg_root_square_matches_a_decimal_bisection(t, gamma):
    # p - c/sqrt(p) = t; its root is at least t and c^(2/3) for t >= 0 and at
    # most twice the larger; for t < 0 it is below c^(2/3), where
    # c/sqrt(p) = p + |t| lies between |t| and |t| + c^(2/3)
    kind = cat.NegRoot(1.1, 2.0)
    p = _quiet_prox(kind, t, gamma)
    assert p >= max(t, 0.0)
    with decimal.localcontext(CONTEXT):
        c, T = D(gamma * kind.omega / 2.0), D(t)
        k = c ** (D(2) / 3)
        if T >= 0:
            lo, hi = max(T, k), 2 * max(T, k)
        else:
            lo, hi = (c / (-T + k)) ** 2, min(k, (c / -T) ** 2)
        ref = _bisect(lambda x: x - T - c / x.sqrt(), lo, hi)
    _assert_close(p, ref)


def _log_inverse_reference(kind, t, gamma):
    """The root of p - a - A/p - B/p^2 = 0, which is below 0 at
    min(1, sqrt(B/(1 + |a|)))/2 and above 0 at 1 + |a| + A + B."""
    with decimal.localcontext(CONTEXT):
        a, A, B = D(t - gamma * kind.alpha), D(gamma * kind.kappa), D(gamma * kind.omega)
        lo, hi = min(D(1), (B / (1 + abs(a))).sqrt()) / 2, 1 + abs(a) + A + B
        return _bisect(lambda x: x - a - A / x - B / x / x, lo, hi)


@given(t=POINTS, gamma=GAMMAS)
@settings(max_examples=300, deadline=None)
def test_log_inverse_matches_a_decimal_bisection(t, gamma):
    kind = cat.LogInverse(0.7, 0.3, 0.5)
    p = _quiet_prox(kind, t, gamma)
    assert p > 0.0
    _assert_close(p, _log_inverse_reference(kind, t, gamma))


def test_log_inverse_where_a_reversed_coefficient_overflows():
    # for t - gamma*alpha < 0 the cubic is solved in cbrt(B)/p, whose
    # coefficient a/cbrt(B) is -1e350 here
    kind = cat.LogInverse(1.0, 0.0, 1e-300)
    p = _quiet_prox(kind, -1e250, 1.0)
    _assert_close(p, _log_inverse_reference(kind, -1e250, 1.0))


def _barrier_reference(kind, t, gamma):
    """The root and the scale at which the residual's terms, each rounded
    once, place it.

    The root's distance w to the pole on its side of the midpoint m is
    bisected: on the upper side r(hi - w) > 0 for w <= B/(|t - m| + A/h + 1),
    and likewise on the lower side.  Where the two pole terms cancel, their
    rounding alone moves the root by more than an ulp of a root near 0, so
    the scale is (|p| + |t| + A/(p - lo) + B/(hi - p))/r'(p)."""
    with decimal.localcontext(CONTEXT):
        lo, hi, T = D(kind.lo), D(kind.hi), D(t)
        A, B = D(gamma * kind.k_lo), D(gamma * kind.k_hi)
        m, h = (lo + hi) / 2, (hi - lo) / 2

        def r(near_lo, near_hi):  # the residual at the point these distances from lo and hi
            return lo + near_lo - T - A / near_lo + B / near_hi

        if r(h, h) <= 0:
            near_hi = _bisect(lambda w: -r(2 * h - w, w), min(h, B / (abs(T - m) + A / h + 1)) / 2, h)
            ref, near_lo = hi - near_hi, 2 * h - near_hi
        else:
            near_lo = _bisect(lambda w: r(w, 2 * h - w), min(h, A / (abs(T - m) + B / h + 1)) / 2, h)
            ref, near_hi = lo + near_lo, 2 * h - near_lo
        scale = (abs(ref) + abs(T) + A / near_lo + B / near_hi) / (1 + A / near_lo**2 + B / near_hi**2)
        return ref, float(scale)


@given(t=POINTS, gamma=GAMMAS)
@settings(max_examples=300, deadline=None)
def test_interval_log_barrier_matches_a_decimal_bisection(t, gamma):
    kind = cat.IntervalLogBarrier(-2.0, 3.0, 0.6, 0.9)
    p = _quiet_prox(kind, t, gamma)
    assert kind.lo < p < kind.hi
    _assert_close(p, *_barrier_reference(kind, t, gamma))


def test_interval_log_barrier_on_an_interval_below_1e_154():
    # (A + B)/h^2 overflows, and the cubic in w = h*x is solved instead
    h = 9.402429468043572e-184
    kind = cat.IntervalLogBarrier(-h, h, 0.8455512563079767, 229.03521157775364)
    p = _quiet_prox(kind, 0.0, 0.4702438932156436)
    assert kind.lo < p < kind.hi
    _assert_close(p, *_barrier_reference(kind, 0.0, 0.4702438932156436))


@given(x=st.one_of(st.floats(-700.0, 700.0), st.floats(0.0, 300.0).map(lambda e: 10.0**e)))
@settings(max_examples=300, deadline=None)
def test_lambert_w_exp_matches_a_decimal_solve(x):
    # w + ln w = c with c = x - 1: for c > 1 the root lies in [c - ln c, c],
    # otherwise in [e^(c - 3), e^c]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = lambert_w_exp(x)
    with decimal.localcontext(CONTEXT):
        c = D(x) - 1
        lo, hi = (c - c.ln(), c) if c > 1 else ((c - 3).exp(), c.exp())
        ref = _bisect(lambda v: v + v.ln() - c, lo, hi)
    _assert_close(w, ref)


def test_lambert_w_exp_keeps_its_shape_and_rounds_an_underflow_to_zero():
    w = lambert_w_exp(np.array([[-1e300, 1.0], [700.0, 1e300]]))
    assert w.shape == (2, 2)
    assert w[0, 0] == 0.0 and w[1, 1] == 1e300
