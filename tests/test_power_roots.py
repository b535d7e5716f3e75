"""The power proxes' root p >= 0 of p + c*p^(q-1) = a: closed forms for q = 2,
3 and 5/2, factor-two brackets for every other q, and stacks of kinds with
mixed exponents."""

import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsplit import catalog as cat
from proxsplit.core import InvalidParameterError

EPS = np.finfo(float).eps
GAMMAS = (0.25, 1.0, 4.0)


def _decimal_power_root(c: float, e: int, a: float) -> float:
    """The root of p + c*p^e = a (e = 1 or 2) by 200 bisections in 80-digit
    decimal arithmetic on [min(a/2, (a/2c)^(1/e)), min(a, (a/c)^(1/e))],
    where each term alone bounds it, rounded once to a float."""
    with decimal.localcontext(decimal.Context(prec=80)):
        c, a = decimal.Decimal(c), decimal.Decimal(a)

        def root(x):
            return x if e == 1 else x.sqrt()

        lo, hi = min(a / 2, root(a / 2 / c)), min(a, root(a / c))
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid + c * mid**e < a:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def _relative_residual(p: float, c: float, q: float, a: float) -> float:
    """|p + c*p^(q-1) - a| / a, evaluated in 60-digit decimal arithmetic on
    the floats p, c and a, so that only the error of p counts."""
    with decimal.localcontext(decimal.Context(prec=60)):
        p, c, a = decimal.Decimal(abs(p)), decimal.Decimal(c), decimal.Decimal(a)
        return float(abs(p + c * p ** decimal.Decimal(q - 1.0) - a) / a)


def _warning_free(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


# each power kind at gamma = 1 with the (c, a) of its equation at t, as the kind forms them
POWER_KINDS = {
    "power_abs": (lambda q: cat.PowerAbs(1.0, q), lambda q, t: (q * 1.0 * 1.0, abs(t))),
    "abs_quad_power": (
        lambda q: cat.AbsQuadPower(0.3, 0.5, 0.7, q),
        lambda q, t: (q * (1.0 * 0.7 / 2.0), max(abs(t) - 0.3, 0.0) / 2.0),
    ),
    "smooth_plus_support": (
        lambda q: cat.SmoothPlusSupport(cat.PowerAbs(1.0, q), -1.0, 1.0),
        lambda q, t: (q * 1.0 * 1.0, abs(t - min(max(t, -1.0), 1.0))),
    ),
}


CLOSED_EXPONENTS = (2.0, 3.0, 2.5)


@pytest.mark.parametrize("name", sorted(POWER_KINDS))
@pytest.mark.parametrize("q", (2.0, 2.5, 2.6, 3.0, 4.0))
@pytest.mark.parametrize("t", (1e235, -1e235, 1e300, -1e300))
def test_power_proxes_solve_at_large_points(name, q, t):
    # past |t| of about 1e235, 200 halvings of [0, a] do not reach a solved
    # q >= 2 root (2.6 and 4 here); the closed forms hold there too
    make, equation = POWER_KINDS[name]
    p = _warning_free(make(q).prox, t)
    c, a = equation(q, t)
    assert math.isfinite(p) and p * t > 0.0, p
    assert _relative_residual(p, c, q, a) <= 4.0 * EPS, p


@pytest.mark.parametrize("t", (math.inf, math.nan))
def test_root_solved_power_proxes_reject_non_finite_points(t):
    with pytest.raises(InvalidParameterError, match="finite"):
        cat.PowerAbs(1.0, 2.6).prox(t)


@given(
    q=st.sampled_from((2.0, 3.0)),
    t=st.floats(-300.0, 300.0).map(lambda x: 10.0**x),
    negative=st.booleans(),
    c=st.floats(-6.0, 6.0).map(lambda x: 10.0**x),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_power_roots_match_a_decimal_bisection(q, t, negative, c):
    t = -t if negative else t
    kind = cat.PowerAbs(c / q, q)
    p = _warning_free(kind.prox, t)
    ref = _decimal_power_root(q * 1.0 * kind.kappa, int(q) - 1, abs(t))
    assert abs(abs(p) - ref) <= 4.0 * np.spacing(ref), (p, ref)
    assert math.copysign(1.0, p) == math.copysign(1.0, t)


MIXED = [(1.2, 2.0), (0.7, 2.5), (1.1, 3.0), (0.5, 2.6), (0.9, 2.0), (0.3, 3.0), (2.0, 1.5)]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_a_stack_of_mixed_exponents_gives_each_coordinate_its_own_prox(gamma):
    # q = 2 and 3 to the bit, the cubic form to 2 ulp and a solved coordinate
    # to the solver's tolerance, since numpy may take a power, a root or a
    # cosine by another path for a scalar than for an array
    t = np.array([1.5, -2.0, 3.0, -4.0, 0.0, 5.5, -0.7])
    powers = [cat.PowerAbs(kappa, q) for kappa, q in MIXED]
    quads = [cat.AbsQuadPower(0.3, 0.5, kappa, q) for kappa, q in MIXED]
    for kinds in (powers, quads):
        p = cat.separable(kinds).prox(gamma, t)
        for k, x, pk in zip(kinds, t, p):
            alone = k.prox(float(x), gamma)
            if k.q in (2.0, 3.0):
                assert pk == alone, (k, x)
            else:
                tol = 2.0 * np.spacing(abs(alone)) if k.q in CLOSED_EXPONENTS else 2e-14
                assert pk == pytest.approx(alone, rel=0.0, abs=tol), (k, x)


def test_closed_form_exponents_make_no_root_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_monotone called")

    monkeypatch.setattr(cat, "solve_monotone", refuse)
    t = np.linspace(-6.0, 6.0, 13)
    closed = [cat.PowerAbs(kappa, q) for kappa in (1.0, 0.5, 2.0, 0.3) for q in CLOSED_EXPONENTS]
    cat.separable(closed + [cat.PowerAbs(2.0, 3.0)]).prox(1.0, t)
    for q in CLOSED_EXPONENTS:
        cat.separable(cat.AbsQuadPower(0.3, 0.5, 0.7, q), dim=13).prox(1.0, t)
        cat.SmoothPlusSupport(cat.PowerAbs(1.0, q), -1.0, 1.0).prox(t)


@pytest.mark.parametrize("q", (1.01, 1.5, 2.6, 4.0, 50.0, 1e4, 1e6))
@pytest.mark.parametrize("gamma", (1e-3, 1.0, 1e3))
def test_factor_two_brackets_hold_the_root_for_every_exponent(q, gamma):
    # the bracket of every solved q holds the root, so the solve succeeds.  The
    # residual stops at 1e-14, or at p within about an ulp of the root, which
    # the power term multiplies by q - 1; a root far below 1e-14 is found only
    # to that absolute tolerance
    t = np.geomspace(1e-300, 1e300, 241)
    p = _warning_free(cat.separable(cat.PowerAbs(1.0, q), dim=t.size).prox, gamma, t)
    assert np.all((0.0 <= p) & (p <= t))
    for pk, tk in zip(p[p > 1e-10].tolist(), t[p > 1e-10].tolist()):
        assert _relative_residual(pk, q * gamma * 1.0, q, tk) <= 1e-14 / tk + 4.0 * q * EPS, (pk, tk)
