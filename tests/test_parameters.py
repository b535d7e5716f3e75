"""Every numeric parameter is checked by one rule: a malformed or out-of-range
value raises InvalidParameterError naming the parameter, and a bool is not a
number."""

import dataclasses
import fractions
import math

import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit import problems, sets, solvers
from proxsplit.core import InvalidParameterError, LinearMap, SmoothFn, as_real, identity_map

# a valid value for every numeric kind parameter, by name
VALID = {"omega": 1.0, "kappa": 1.0, "k_lo": 1.0, "k_hi": 1.0, "q": 2.0, "tau": 0.5, "alpha": 0.5, "lo": -1.0, "hi": 1.0}
# the nearest rejected value of each bounded parameter
OUT_OF_RANGE = {"omega": 0.0, "kappa": 0.0, "k_lo": 0.0, "k_hi": 0.0, "q": 1.0, "tau": -0.5}
MALFORMED = (None, "1", True, math.nan, math.inf, np.array([1.0, 2.0]))


def _valid_kind_params(cls):
    return {f.name: cat.Huber(1.0, 1.0) if f.name == "psi" else VALID[f.name] for f in dataclasses.fields(cls)}


def _kind_case(cls, name):
    return lambda v: cls(**{**_valid_kind_params(cls), name: v})


def _cases():
    """(label, parameter name, constructor taking the value, bad values)."""
    for kind, cls in cat.SCALAR_KINDS.items():
        for f in dataclasses.fields(cls):
            if f.name == "psi":
                continue
            bad = list(MALFORMED)
            if cls is cat.Interval:
                bad.remove(math.inf)  # an Interval bound may be infinite
            if f.name in OUT_OF_RANGE:
                bad.append(OUT_OF_RANGE[f.name])
            yield f"{kind}.{f.name}", f.name, _kind_case(cls, f.name), bad
    ball = sets.Ball(np.zeros(2), 1.0)
    zero, L2 = cat.zero_fn(2), identity_map(2)
    ident = lambda x: x  # noqa: E731
    yield "scalar_prox.x", "x", lambda v: cat.scalar_prox(cat.Huber(1.0, 1.0), v), list(MALFORMED)
    yield "scalar_prox.gamma", "gamma", lambda v: cat.scalar_prox(cat.Huber(1.0, 1.0), 1.0, v), [*MALFORMED, 0.0]
    yield "quadratic_deviation.weight", "weight", lambda v: cat.quadratic_deviation([1.0], v), [*MALFORMED, 0.0]
    yield "scaled.coeff", "coeff", lambda v: cat.scaled(zero, v), [*MALFORMED, 0.0]
    yield "arg_scaled.rho", "rho", lambda v: cat.arg_scaled(zero, v), [*MALFORMED, 0.0]
    yield "quad_perturbed.alpha", "alpha", lambda v: cat.quad_perturbed(zero, v), [*MALFORMED, -1.0]
    yield "quadratic.weight", "weight", lambda v: cat.quadratic(L2, [1.0, 2.0], v), [*MALFORMED, 0.0]
    yield "scaled_distance.weight", "weight", lambda v: cat.scaled_distance(ball, v), [*MALFORMED, 0.0]
    yield (
        "support_plus_radial.argmin_max", "argmin_max",
        lambda v: cat.support_plus_radial(ball, cat.Huber(1.0, 1.0), v), [*MALFORMED, -1.0],
    )
    yield "SmoothFn.lipschitz", "lipschitz", lambda v: SmoothFn(2, ident, ident, v), [*MALFORMED, 0.0]
    yield (
        "LinearMap.tight_frame_nu", "tight_frame_nu",
        lambda v: LinearMap(2, 2, ident, ident, tight_frame_nu=v), [*MALFORMED[1:], 0.0],  # None: no frame
    )
    yield "StoppingRule.tol", "tol", lambda v: solvers.StoppingRule(tol=v), [*MALFORMED, 0.0]
    yield "QuadraticTerm.weight", "weight", lambda v: solvers.QuadraticTerm(v, [0.0]), [*MALFORMED, 0.0]
    yield "Ball.radius", "radius", lambda v: sets.Ball([0.0], v), [*MALFORMED, -1.0]
    yield "Halfspace.b", "b", lambda v: sets.Halfspace([1.0], v), list(MALFORMED)
    yield "Hyperplane.b", "b", lambda v: sets.Hyperplane([1.0], v), list(MALFORMED)
    # a box bound may be infinite, and is a vector
    bad_bounds = [None, "1", True, math.nan, ["a"], [0.0, "a"], [0.0, True], [[0.0]]]
    yield "Box.lo", "lo", lambda v: sets.Box(v, [1.0]), bad_bounds
    yield "Box.hi", "hi", lambda v: sets.Box([0.0], v), bad_bounds
    yield "quad_perturbed.offset", "offset", lambda v: cat.quad_perturbed(zero, 0.0, None, v), list(MALFORMED)
    yield "build_tv1d.omega", "omega", lambda v: problems.build_tv1d([0.0, 1.0, 0.5], v), [*MALFORMED, 0.0]
    quad = solvers.QuadraticTerm(1.0, [1.0, 2.0])
    for solver, run in (
        ("douglas_rachford", lambda v: solvers.douglas_rachford(zero, zero, gamma=v)),
        ("prox_l", lambda v: solvers.prox_l(quad, L2, [0.0, 0.0], gamma=v)),
        ("admm", lambda v: solvers.admm(quad, L2, zero, gamma=v)),
        ("ppxa", lambda v: solvers.ppxa([zero], [1.0], gamma=v)),
        ("sdmm", lambda v: solvers.sdmm([zero], [L2], gamma=v)),
    ):
        yield f"{solver}.gamma", "gamma", run, [*MALFORMED, 0.0]


CASES = [
    pytest.param(make, name, value, id=f"{label}={value!r}".replace(" ", ""))
    for label, name, make, bad in _cases()
    for value in bad
]


@pytest.mark.parametrize("make, name, value", CASES)
def test_bad_value_raises_named_error(make, name, value):
    with pytest.raises(InvalidParameterError, match=rf"\b{name}\b"):
        make(value)


@pytest.mark.parametrize("kind", sorted(cat.SCALAR_KINDS))
def test_every_kind_accepts_numbers_and_stores_floats(kind):
    cls = cat.SCALAR_KINDS[kind]
    params = _valid_kind_params(cls)
    for convert in (float, np.float64, fractions.Fraction):
        k = cls(**{n: v if n == "psi" else convert(v) for n, v in params.items()})
        assert all(type(getattr(k, n)) is float for n in params if n != "psi")
        assert k == cls(**params)


def test_bounds_are_inclusive_only_where_the_rule_says():
    assert cat.AbsQuadPower(1.0, 0, 1.0, 2.0).tau == 0.0
    assert cat.PowerAbs(1, 1.0 + 2**-52).q > 1.0
    assert sets.Ball([0.0], 0).radius == 0.0
    assert cat.quad_perturbed(cat.zero_fn(1), 0).eval([1.0]) == 0.0
    assert cat.Interval() == cat.Interval(-math.inf, math.inf)
    assert cat.Interval(np.float64(-math.inf), 0).hi == 0.0


def test_as_real():
    assert as_real(3, "n") == 3.0 and type(as_real(np.int64(3), "n")) is float
    assert as_real(0.0, "t", at_least=0.0) == 0.0
    for value, rule in ((0.0, {"above": 0.0}), (-1e-300, {"at_least": 0.0}), (10**400, {}), (np.bool_(True), {})):
        with pytest.raises(InvalidParameterError, match="^t must be a finite number"):
            as_real(value, "t", **rule)
    with pytest.raises(InvalidParameterError, match=r"^kappa must be a finite number > 0, got None$"):
        as_real(None, "kappa", above=0.0)
