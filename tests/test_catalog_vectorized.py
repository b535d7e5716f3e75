"""The array-native catalog: grouped separable sums, elementwise root
solving to the residual tolerance, elementwise errors, and the CLI table."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import KIND_NAMES, draw_case
from proxsplit import catalog as cat
from proxsplit.cli import main
from proxsplit.core import InvalidParameterError
from proxsplit.scalar import Bracket, BracketingError, lambert_w_exp, solve_monotone

GAMMAS = (0.25, 1.0, 4.0)
ROOT_TOL = 1e-14


def test_interleaved_separable_matches_per_kind_separables():
    # every kind three times, each coordinate with its own parameters, laid
    # out round-robin so that each kind's coordinates are scattered
    rng = np.random.default_rng(17)
    kinds, xs = [], []
    for _ in range(3):
        for name in KIND_NAMES:
            kind, x, _, _ = draw_case(name, rng)
            kinds.append(kind)
            xs.append(x)
    x = np.array(xs)
    mixed = cat.separable(kinds)
    for gamma in GAMMAS:
        p = mixed.prox(gamma, x)
        for name in KIND_NAMES:
            idx = [i for i, k in enumerate(kinds) if isinstance(k, cat.SCALAR_KINDS[name])]
            alone = cat.separable([kinds[i] for i in idx]).prox(gamma, x[idx])
            np.testing.assert_allclose(p[idx], alone, rtol=0.0, atol=1e-12, err_msg=name)
            for i in idx:
                assert p[i] == pytest.approx(kinds[i].prox(float(x[i]), gamma), abs=1e-12), name
    inside = mixed.prox(1.0, x)  # a point where every term is finite
    per_kind = sum(cat.separable([kinds[i]]).eval(inside[i : i + 1]) for i in range(len(kinds)))
    assert mixed.eval(inside) == pytest.approx(per_kind, rel=1e-12)


def test_basis_separable_groups_match_coordinatewise():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    kinds = [cat.IntervalSupport(-0.5, 0.7), cat.Interval(-1.0, 1.0), cat.Huber(0.8, 1.1)] * 2
    f = cat.basis_separable(kinds, Q)
    x = rng.uniform(-3.0, 3.0, 6)
    c = Q.T @ x
    expected = Q @ np.array([k.prox(float(ck), 2.0) for k, ck in zip(kinds, c)])
    np.testing.assert_allclose(f.prox(2.0, x), expected, rtol=0.0, atol=1e-14)


def _soft(t, gamma, lo, hi):
    return t - np.clip(t, gamma * lo, gamma * hi)


# the prox equation of each root-solved kind, written on the output p, and
# the kind it belongs to; each residual is increasing in p with slope >= 1
def _power(p, a, c, q):
    return np.abs(p) + c * np.abs(p) ** (q - 1.0) - a


def _aqp_residual(p, t, g):
    omega, tau, kappa, q = 0.4, 0.6, 1.2, 2.6
    shrink = 2.0 * g * tau + 1.0
    return _power(p, np.maximum(np.abs(t) - g * omega, 0.0) / shrink, q * (g * kappa / shrink), q)


ROOT_CASES = {
    "power_abs": (cat.PowerAbs(0.8, 1.7), lambda p, t, g: _power(p, np.abs(t), 1.7 * g * 0.8, 1.7)),
    "abs_quad_power": (cat.AbsQuadPower(0.4, 0.6, 1.2, 2.6), _aqp_residual),
    "neg_root": (cat.NegRoot(1.3, 2.5), lambda p, t, g: p - t - (g * 1.3 / 2.5) * p ** (1.0 / 2.5 - 1.0)),
    "inverse_power": (cat.InversePower(0.7, 1.8), lambda p, t, g: p - t - g * 1.8 * 0.7 * p ** (-2.8)),
    "log_inverse": (cat.LogInverse(1.1, -0.6, 0.9), lambda p, t, g: p - t + g * (-0.6 - 1.1 / p - 0.9 / p**2)),
    "log_power": (cat.LogPower(0.9, 1.4, 2.2), lambda p, t, g: p - t + g * (2.2 * 1.4 * p ** (2.2 - 1.0) - 0.9 / p)),
    "interval_log_barrier": (
        cat.IntervalLogBarrier(-1.5, 2.0, 0.7, 1.3),
        lambda p, t, g: p - t - g * 0.7 / (p + 1.5) + g * 1.3 / (2.0 - p),
    ),
    "smooth_plus_support": (
        cat.SmoothPlusSupport(cat.PowerAbs(0.6, 2.4), -0.5, 1.0),
        lambda p, t, g: _power(p, np.abs(_soft(t, g, -0.5, 1.0)), 2.4 * g * 0.6, 2.4),
    ),
}


# open or closed domain of each root-solved kind in ROOT_CASES; the others take every real
DOMAINS = {
    "neg_root": lambda p: p >= 0.0,
    "inverse_power": lambda p: p > 0.0,
    "log_inverse": lambda p: p > 0.0,
    "log_power": lambda p: p > 0.0,
    "interval_log_barrier": lambda p: (-1.5 < p) & (p < 2.0),
}


def _solved(name, p, t, gamma):
    """Where each output p of kind ``name`` at t meets the solver's stopping test."""
    residual = ROOT_CASES[name][1]
    in_domain = DOMAINS.get(name, lambda p: True)
    with np.errstate(all="ignore"):
        r = residual(p, t, gamma)
        # where |r(p)| > tol the solver stopped on its bracket: the root then lies
        # within the bracket width (tol, or one float spacing) of p, so r changes
        # sign across p -/+ that width
        width = ROOT_TOL + 2.0 * np.spacing(np.abs(p))
        if name in ("power_abs", "abs_quad_power", "smooth_plus_support"):
            # the equation is in |p|; at a zero right-hand side the prox is 0
            zero = np.abs(residual(np.zeros_like(p), t, gamma)) == 0.0
            assert np.all(p[zero] == 0.0)
            lo_r, hi_r = residual(np.abs(p) - width, t, gamma), residual(np.abs(p) + width, t, gamma)
            bracketed = zero | (lo_r <= 0.0) & (hi_r >= 0.0) | (np.abs(p) < width)
        else:
            # p lies in the domain, and r tends to -inf at its lower end and to
            # +inf at its upper end: a point past an end counts as its sign
            below, above = p - width, p + width
            bracketed = (~in_domain(below) | (residual(below, t, gamma) <= 0.0)) & (
                ~in_domain(above) | (residual(above, t, gamma) >= 0.0)
            )
    return (np.abs(r) <= ROOT_TOL) | bracketed


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_root_solved_outputs_meet_the_residual_tolerance(name, gamma):
    kind, residual = ROOT_CASES[name]
    t = np.random.default_rng(11).uniform(-6.0, 6.0, 1000)
    p = cat.separable(kind, dim=t.size).prox(gamma, t)
    ok = _solved(name, p, t, gamma)
    assert ok.all(), (name, gamma, t[~ok][:3], p[~ok][:3], residual(p, t, gamma)[~ok][:3])


EXTREME_T = (1e300, -1e300, 1e16, -1e16, 6.0, -6.0, 1e-300, -1e-300, 0.0)


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
@pytest.mark.parametrize("gamma", (1e-3, 1.0, 1e3))
def test_root_solved_kinds_on_extreme_inputs(name, gamma):
    kind, _ = ROOT_CASES[name]
    in_domain = DOMAINS.get(name, lambda p: True)
    for t in EXTREME_T:
        # neg_root's prox (of a decreasing function) lies right of t, and so
        # inside its domain; log_inverse's bracket holds its root for every t
        must_solve = name == "neg_root" and t >= 1e16 or name == "log_inverse" and abs(t) == 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                p = kind.prox(t, gamma)
            except BracketingError:
                assert not must_solve, t
                continue
        assert math.isfinite(p) and in_domain(p), (t, p)
        assert p >= t or name != "neg_root" or t < 1e16, (t, p)
        assert _solved(name, np.array([p]), np.array([t]), gamma).all(), (t, p)


def test_neg_root_prox_eval_at_a_large_input(capsys):
    assert main(["prox-eval", "--kind", "neg_root", "--params", '{"omega": 1.1, "q": 2.0}', "--x", "1e16"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["1e+16", "1e+16"]


# q < 2 power proxes where the power term dominates, so that the tightened
# bracket ends lie within rounding of the root or below the normal range:
# (kind, the right side a of p + c*p^(q-1) = a at input t and gamma = 1, t).
# The root lies in ]0, a].
POWER_NEAR_ZERO = [
    ("power_abs", lambda q: cat.PowerAbs(1.0, q), lambda t: abs(t), t) for t in (1e-80, 1e-40, 1e-20)
] + [
    (name, make, lambda t: abs(t) - 1.0, 1.0 + d)
    for name, make in (
        ("abs_quad_power", lambda q: cat.AbsQuadPower(1.0, 0.0, 1.0, q)),
        ("smooth_plus_support", lambda q: cat.SmoothPlusSupport(cat.PowerAbs(1.0, q), -1.0, 1.0)),
    )
    for d in (1e-12, 1e-10, 1e-8)
]


@pytest.mark.parametrize("q", (1.1, 1.3, 1.5, 1.7, 1.9))
@pytest.mark.parametrize("name,make,arg,t", POWER_NEAR_ZERO, ids=[f"{c[0]}-{c[3]!r}" for c in POWER_NEAR_ZERO])
def test_power_kinds_below_q2_near_zero(name, make, arg, t, q):
    kind, a = make(q), arg(t)
    for x in (t, -t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = kind.prox(x, 1.0)
        assert math.isfinite(p) and abs(p) <= a and p * x >= 0.0, (x, p)


@pytest.mark.parametrize(
    "kind,params,x",
    (
        ("power_abs", '{"kappa": 1.0, "q": 1.3}', "1e-20"),
        ("abs_quad_power", '{"omega": 1.0, "tau": 0.0, "kappa": 1.0, "q": 1.3}', "1.00000000001"),
    ),
)
def test_power_prox_eval_near_zero(capsys, kind, params, x):
    assert main(["prox-eval", "--kind", kind, "--params", params, "--x", x]) == 0
    p = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert 0.0 < p < 1e-30


def test_smooth_plus_support_power_just_past_the_support():
    p = cat.SmoothPlusSupport(cat.PowerAbs(1.0, 1.3), -1.0, 1.0).prox(1.0 + 1e-12)
    assert 0.0 < p < 1e-30


# the four kinds with a pole at 0 and their residuals, written independently
# of the catalog, as functions of (p, t, gamma, q, omega, kappa, alpha)
POLE_KINDS = {
    "neg_root": (
        lambda q, omega, kappa, alpha: cat.NegRoot(omega, q),
        lambda p, t, g, q, omega, kappa, alpha: p - t - g * omega / q * p ** (1.0 / q - 1.0),
    ),
    "inverse_power": (
        lambda q, omega, kappa, alpha: cat.InversePower(omega, q),
        lambda p, t, g, q, omega, kappa, alpha: p - t - g * q * omega * p ** (-q - 1.0),
    ),
    "log_inverse": (
        lambda q, omega, kappa, alpha: cat.LogInverse(kappa, alpha, omega),
        lambda p, t, g, q, omega, kappa, alpha: p - t + g * (alpha - kappa / p - omega / p**2),
    ),
    "log_power": (
        lambda q, omega, kappa, alpha: cat.LogPower(kappa, omega, q),
        lambda p, t, g, q, omega, kappa, alpha: p - t + g * (q * omega * p ** (q - 1.0) - kappa / p),
    ),
}
_MAGNITUDE = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


@given(
    name=st.sampled_from(sorted(POLE_KINDS)),
    q=st.floats(1.0, 11.0, exclude_min=True),
    omega=st.floats(1e-2, 1e2),
    kappa=st.floats(1e-2, 1e2),
    alpha=st.floats(-3.0, 3.0),
    gamma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    t=st.one_of(_MAGNITUDE, _MAGNITUDE.map(lambda m: -m), st.floats(-50.0, 50.0), st.just(0.0)),
)
# a lower end that underflows to a subnormal float, where r(lo) rounds above 0
@example(name="neg_root", q=1.0358, omega=4.4e-2 * 1.0358, kappa=1.0, alpha=0.0, gamma=1.0, t=-3.7e9)
@settings(max_examples=400, deadline=None)
def test_pole_kind_brackets_hold_the_root(name, q, omega, kappa, alpha, gamma, t):
    make, residual = POLE_KINDS[name]
    brackets = []

    def recording(g, bracket, **kwargs):
        brackets.append(bracket)
        return solve_monotone(g, bracket, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cat, "solve_monotone", recording)
        make(q, omega, kappa, alpha).prox(t, gamma)
    (bracket,) = brackets
    lo, hi = float(bracket.lo), float(bracket.hi)
    assert math.isfinite(lo) and math.isfinite(hi) and lo < hi
    with np.errstate(divide="ignore", over="ignore"):
        r_lo = residual(np.float64(lo), t, gamma, q, omega, kappa, alpha)
        r_hi = residual(np.float64(hi), t, gamma, q, omega, kappa, alpha)
    assert r_lo <= 0.0 <= r_hi, (lo, hi, r_lo, r_hi)


_SCALE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_ANY_SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@given(
    lo=st.tuples(st.sampled_from((-1.0, 1.0)), _SCALE).map(lambda s: s[0] * s[1]),
    width=_SCALE,
    k_lo=_SCALE,
    k_hi=_SCALE,
    gamma=_SCALE,
    t=st.one_of(_ANY_SCALE, _ANY_SCALE.map(lambda m: -m)),
    offset=st.one_of(st.none(), st.floats(-3.0, 4.0)),
)
# ends that break the bracket unless rounded toward their pole: the lower, then the upper
@example(lo=-100.0, width=1000.0, k_lo=1e-3, k_hi=1e-3, gamma=1e-3, t=0.0, offset=-2.6)
@example(lo=1000.0, width=100.0, k_lo=1e-2, k_hi=1e-3, gamma=0.1, t=0.0, offset=3.2)
@settings(max_examples=400, deadline=None)
def test_barrier_brackets_hold_the_root(lo, width, k_lo, k_hi, gamma, t, offset):
    hi = lo + width
    if offset is not None:  # t inside (lo - 3w, hi + 3w)
        t = lo + offset * width
    brackets = []

    def recording(g, bracket, **kwargs):
        brackets.append(bracket)
        return solve_monotone(g, bracket, **kwargs)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.setattr(cat, "solve_monotone", recording)
        kind = cat.IntervalLogBarrier(lo, hi, k_lo, k_hi)
        kind.prox(t, gamma)
    (bracket,) = brackets
    a, b = float(bracket.lo), float(bracket.hi)
    assert math.isfinite(a) and math.isfinite(b) and kind.lo <= a < b <= kind.hi, (a, b)
    with np.errstate(divide="ignore"):
        r_a, r_b = (p - t - gamma * k_lo / (p - kind.lo) + gamma * k_hi / (kind.hi - p) for p in map(np.float64, (a, b)))
    assert r_a <= 0.0 <= r_b, (a, b, r_a, r_b)


# the prox_catalog benchmark's kind parameters, with the most residual
# evaluations any one solve may take on 1,000 points uniform on [-6, 6]
EVALUATION_BUDGETS = {
    "neg_root": (cat.NegRoot(1.1, 2.0), (10, 10, 10)),
    "inverse_power": (cat.InversePower(0.8, 2.0), (10, 10, 10)),
    "log_power": (cat.LogPower(0.8, 0.5, 2.5), (10, 10, 10)),
    "log_inverse": (cat.LogInverse(0.7, 0.3, 0.5), (14, 14, 14)),
    "interval_log_barrier": (cat.IntervalLogBarrier(-2.0, 3.0, 0.6, 0.9), (18, 18, 18)),
    "power_abs": (cat.PowerAbs(1.2, 2.5), (7, 8, 9)),
    "abs_quad_power": (cat.AbsQuadPower(0.3, 0.5, 0.7, 3.0), (7, 7, 7)),
}


def _evaluation_counts(monkeypatch, run):
    counts = []

    def counting(g, bracket, **kwargs):
        def counted(p):
            counts[-1] += 1
            return g(p)

        counts.append(0)
        return solve_monotone(counted, bracket, **kwargs)

    monkeypatch.setattr(cat, "solve_monotone", counting)
    run()
    return counts


@pytest.mark.parametrize("name", sorted(EVALUATION_BUDGETS))
def test_root_solves_stay_within_their_evaluation_budget(monkeypatch, name):
    kind, budgets = EVALUATION_BUDGETS[name]
    t = np.random.default_rng(11).uniform(-6.0, 6.0, 1000)
    f = cat.separable(kind, dim=t.size)
    counts = _evaluation_counts(monkeypatch, lambda: [f.prox(gamma, t) for gamma in GAMMAS])
    assert len(counts) == len(GAMMAS)
    assert all(n <= budget for n, budget in zip(counts, budgets)), counts


def test_a_newton_step_that_cannot_move_p_probes_the_next_float(monkeypatch):
    # Newton ends at |r| just above the tolerance, and its next point rounds to p
    kind = cat.IntervalLogBarrier(-2.0, 3.0, 0.6, 0.9)
    counts = _evaluation_counts(monkeypatch, lambda: kind.prox(-5.9418419056725575, 0.25))
    assert counts[0] <= 18, counts


def test_entropy_matches_lambert_identity_elementwise():
    t = np.random.default_rng(2).uniform(-6.0, 6.0, 1000)
    for gamma in GAMMAS:
        p = cat.separable(cat.Entropy(), dim=t.size).prox(gamma, t)
        # optimality: p - t + gamma*(ln p + 1) = 0
        assert np.max(np.abs(p - t + gamma * (np.log(p) + 1.0))) <= 1e-12


class TestOneBadElement:
    def test_no_sign_change_in_one_element(self):
        a = np.array([1.0, -2.0, 3.0])
        # element 1: p*p + 1 has no root; the error names its own bracket
        with pytest.raises(BracketingError, match=r"\[-6\.0, 6\.0\]"):
            solve_monotone(lambda p: np.where(a > 0, p - a, p * p + 1.0), Bracket(-np.array([5.0, 6.0, 7.0]), np.array([5.0, 6.0, 7.0])), np.ones_like)

    def test_nan_in_one_element(self):
        with pytest.raises(BracketingError):
            solve_monotone(lambda p: np.array([p[0] - 1.0, math.nan, p[2]]), Bracket(np.full(3, -5.0), np.full(3, 5.0)), np.ones_like)

    def test_nan_inside_the_bracket_in_one_element(self):
        # finite on the bracket ends, NaN at the midpoint of element 1 only
        g = lambda p: np.where((np.arange(3) == 1) & (np.abs(p) < 1.0), math.nan, p - 0.5)
        with pytest.raises(BracketingError, match="inside the bracket"):
            solve_monotone(g, Bracket(np.full(3, -5.0), np.full(3, 5.0)), np.ones_like)

    def test_bad_bracket_in_one_element(self):
        with pytest.raises(InvalidParameterError):
            Bracket(np.array([0.0, 2.0, 0.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            Bracket(np.array([0.0, -math.inf]), np.array([1.0, 1.0]))

    def test_lambert_non_finite_in_one_element(self):
        with pytest.raises(InvalidParameterError):
            lambert_w_exp(np.array([0.0, math.inf, 1.0]))

    def test_separable_barrier_coordinate_next_to_its_pole(self):
        # the root of coordinate 1 is about 1e-300; it is found to the solver's
        # absolute tolerance, and the other coordinates get their own bytes
        kind = cat.IntervalLogBarrier(0.0, 1.0, 1.0, 1.0)
        p = cat.separable(kind, dim=3).prox(1.0, [0.5, -1e300, 0.2])
        assert 0.0 < p[1] <= ROOT_TOL
        assert [p[0], p[2]] == [kind.prox(0.5), kind.prox(0.2)]

    def test_separable_entropy_overflowing_coordinate(self):
        f = cat.separable(cat.Entropy(), dim=3)
        with pytest.raises(InvalidParameterError):
            f.prox(1e-300, [0.0, 1e300, 1.0])


@pytest.mark.parametrize(
    "kind, params, table",
    [
        (
            "power_abs",
            {"kappa": 1.0, "q": 2.0},
            ["-2.0 -0.6666666666666667 1.3333333333333335", "0.0 0.0 0.0", "3.0 1.0 3.0"],
        ),
        ("interval_support", {"lo": -1.0, "hi": 1.0}, ["-2.0 -1.0 1.5", "0.0 0.0 0.0", "3.0 2.0 2.5"]),
        ("huber", {"kappa": 1.0, "omega": 1.0}, ["-2.0 -0.6666666666666666 1.3333333333333335", "0.0 0.0 0.0", "3.0 1.5857864376269049 2.7426406871192857"]),
        ("log_threshold", {"lo": -2.0, "hi": 1.0}, ["-2.0 -1.0 1.1931471805599454", "0.0 0.0 0.0", "3.0 0.585786437626905 3.795587149392638"]),
    ],
)
def test_prox_eval_prints_plain_floats(capsys, kind, params, table):
    assert main(["prox-eval", "--kind", kind, "--params", json.dumps(params), "--x", "-2", "0", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["x prox objective", *table]
