"""The array-native catalog: grouped separable sums, elementwise root
solving to the residual tolerance, elementwise errors, and the CLI table."""

import json
import math

import numpy as np
import pytest

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
    "log_power": (cat.LogPower(0.9, 1.4, 2.2), lambda p, t, g: p - t + g * (2.2 * 1.4 * p**1.2 - 0.9 / p)),
    "interval_log_barrier": (
        cat.IntervalLogBarrier(-1.5, 2.0, 0.7, 1.3),
        lambda p, t, g: p - t - g * 0.7 / (p + 1.5) + g * 1.3 / (2.0 - p),
    ),
    "smooth_plus_support": (
        cat.SmoothPlusSupport(cat.PowerAbs(0.6, 2.4), -0.5, 1.0),
        lambda p, t, g: _power(p, np.abs(_soft(t, g, -0.5, 1.0)), 2.4 * g * 0.6, 2.4),
    ),
}


@pytest.mark.parametrize("name", sorted(ROOT_CASES))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_root_solved_outputs_meet_the_residual_tolerance(name, gamma):
    kind, residual = ROOT_CASES[name]
    t = np.random.default_rng(11).uniform(-6.0, 6.0, 1000)
    p = cat.separable(kind, dim=t.size).prox(gamma, t)
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
        bracketed = (residual(p - width, t, gamma) <= 0.0) & (residual(p + width, t, gamma) >= 0.0)
    ok = (np.abs(r) <= ROOT_TOL) | bracketed
    assert ok.all(), (name, gamma, t[~ok][:3], p[~ok][:3], r[~ok][:3])


def test_entropy_matches_lambert_identity_elementwise():
    t = np.random.default_rng(2).uniform(-6.0, 6.0, 1000)
    for gamma in GAMMAS:
        p = cat.separable(cat.Entropy(), dim=t.size).prox(gamma, t)
        # optimality: p - t + gamma*(ln p + 1) = 0
        assert np.max(np.abs(p - t + gamma * (np.log(p) + 1.0))) <= 1e-12


class TestOneBadElement:
    def test_no_sign_change_in_one_element(self):
        a = np.array([1.0, -2.0, 3.0])
        with pytest.raises(BracketingError):
            # element 1: p*p + 1 has no root
            solve_monotone(lambda p: np.where(a > 0, p - a, p * p + 1.0), Bracket(np.full(3, -5.0), np.full(3, 5.0)))

    def test_nan_in_one_element(self):
        with pytest.raises(BracketingError):
            solve_monotone(lambda p: np.array([p[0] - 1.0, math.nan, p[2]]), Bracket(np.full(3, -5.0), np.full(3, 5.0)))

    def test_bad_bracket_in_one_element(self):
        with pytest.raises(InvalidParameterError):
            Bracket(np.array([0.0, 2.0, 0.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            Bracket(np.array([0.0, -math.inf]), np.array([1.0, 1.0]))

    def test_lambert_non_finite_in_one_element(self):
        with pytest.raises(InvalidParameterError):
            lambert_w_exp(np.array([0.0, math.inf, 1.0]))

    def test_separable_barrier_unbracketable_coordinate(self):
        f = cat.separable(cat.IntervalLogBarrier(0.0, 1.0, 1.0, 1.0), dim=3)
        with pytest.raises(BracketingError):
            f.prox(1.0, [0.5, -1e300, 0.2])

    def test_separable_entropy_overflowing_coordinate(self):
        f = cat.separable(cat.Entropy(), dim=3)
        with pytest.raises(InvalidParameterError):
            f.prox(1e-300, [0.0, 1e300, 1.0])

    def test_each_element_keeps_its_own_answer(self):
        # the element whose bracket must be doubled does not change the others
        g = lambda p: p - np.array([1.0, 2.0, 1e6])
        roots = solve_monotone(g, Bracket(np.zeros(3), np.array([4.0, 4.0, 4.0])), tol=1e-12)
        np.testing.assert_allclose(roots, [1.0, 2.0, 1e6], rtol=1e-15)


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
        ("log_threshold", {"lo": -2.0, "hi": 1.0}, ["-2.0 -1.0 1.1931471805599454", "0.0 0.0 0.0", "3.0 0.5857864376269049 3.7955871493926376"]),
    ],
)
def test_prox_eval_prints_plain_floats(capsys, kind, params, table):
    assert main(["prox-eval", "--kind", kind, "--params", json.dumps(params), "--x", "-2", "0", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["x prox objective", *table]
