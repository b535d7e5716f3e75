"""Every numeric parameter is checked by one rule: a malformed or out-of-range
value raises InvalidParameterError naming the parameter, and a bool is not a
number.  Every other malformed input (entries, dimensions, lengths) raises a
named toolkit error."""

import dataclasses
import fractions
import math
import os
import tempfile

import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit import core, problems, sets, solvers
from proxsplit.cli import TRACE_HEADER, read_trace
from proxsplit.core import (
    InvalidInputError,
    InvalidParameterError,
    IterationRecord,
    LinearMap,
    Schedule,
    SmoothFn,
    SolveResult,
    as_real,
    identity_map,
    matrix_map,
)

from helpers import read_trace_per_line

# a valid value for every numeric kind parameter, by name
VALID = {"omega": 1.0, "kappa": 1.0, "k_lo": 1.0, "k_hi": 1.0, "q": 2.0, "tau": 0.5, "alpha": 0.5, "lo": -1.0, "hi": 1.0}
# the nearest rejected value of each bounded parameter
OUT_OF_RANGE = {"omega": 0.0, "kappa": 0.0, "k_lo": 0.0, "k_hi": 0.0, "q": 1.0, "tau": -0.5}
MALFORMED = (None, "1", True, math.nan, math.inf, np.array([1.0, 2.0]))
# None is the default of a schedule field and a list is a sequence of values
SCHEDULE_MALFORMED = ("1", True, math.nan, math.inf, [None], [0.5, "0.5"], {"a": 1}, np.array(0.5))


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
    yield "ScalarKind.prox.gamma", "gamma", lambda v: cat.Huber(1.0, 1.0).prox(1.0, v), [*MALFORMED, 0.0, -2.0]
    half_sq = problems.set_distance_smooth(ball)  # Lipschitz constant 1
    for field, name in (("gamma", "gamma"), ("lam", "lambda"), ("epsilon", "epsilon")):
        yield (
            f"Schedule.{field}", name,
            lambda v, field=field: solvers.forward_backward(zero, half_sq, Schedule(**{field: v})), SCHEDULE_MALFORMED,
        )
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


def _zero_map(n):
    return LinearMap(n, n, lambda x: 0.0 * x, lambda u: 0.0 * u)


H, ZERO1, ZERO2, I2 = cat.Huber(1.0, 1.0), cat.zero_fn(1), cat.zero_fn(2), identity_map(2)
BOX1, BOX2 = sets.Box([0.0], [1.0]), sets.Box([0.0, 0.0], [1.0, 1.0])

_LONG_TRACE_ROWS = 3000


def _long_trace(bad: list, at: int) -> list:
    """The rows of a ``_LONG_TRACE_ROWS``-row trace, with ``bad`` in place of
    those from row ``at`` (0-based) on."""
    rows = [f"{n},{1.0 / n!r},{0.5**n!r},{1000 * n}" for n in range(1, _LONG_TRACE_ROWS + 1)]
    rows[at : at + len(bad)] = bad
    return rows


# (label, rows, 1-based line of the first malformed row): each malformed row
# in the middle of a long trace and as its last row
_LONG_BAD_TRACES = [
    (f"{_LONG_TRACE_ROWS}-rows-{label}-line-{at + 2}", _long_trace(bad, at), at + 2)
    for label, bad in (
        ("short-row", ["2,0.5,0.25"]),
        ("long-row", ["1,0.5,0.25,10,7"]),
        ("not-a-float", ["1,abc,0.25,10"]),
        ("not-an-int", ["2.5,0.5,0.25,10"]),
        ("blank-row", [""]),
        # a short row then a long one hold as many fields as two good rows
        ("short-then-long-row", ["1,0.5,0.25", "10,2,0.5,0.25,10"]),
    )
    for at in (_LONG_TRACE_ROWS // 2, _LONG_TRACE_ROWS - len(bad))
]

# (id, error class, a word of the message naming what is wrong, call)
BAD_INPUTS = [
    # stacks and matrices: the shared entry check
    ("as_points-bool-and-string", InvalidInputError, "vector", lambda: ZERO2.eval([[True, "1"], [0.0, 1.0]])),
    ("eval-ragged", InvalidInputError, "vector", lambda: ZERO2.eval([[1.0], [1.0, 2.0]])),
    ("apply-ragged", InvalidInputError, "vector", lambda: I2.apply([[1.0], [1.0, 2.0]])),
    # an ndarray passes only with an integer or float dtype
    ("as_vector-bool-array", InvalidInputError, "vector", lambda: core.as_vector(np.array([True, False]))),
    ("as_vector-complex-array", InvalidInputError, "vector", lambda: core.as_vector(np.array([1 + 2j, 3]))),
    ("as_vector-complex-scalar-in-list", InvalidInputError, "vector", lambda: core.as_vector([np.complex128(1.0), 3.0])),
    ("as_points-bool-array", InvalidInputError, "vector", lambda: ZERO2.eval(np.array([[True, False], [False, True]]))),
    ("as_points-complex-array", InvalidInputError, "vector", lambda: ZERO2.eval(np.array([[1j, 0.0], [0.0, 1.0]]))),
    ("matrix_map-bool-array", InvalidParameterError, "A", lambda: matrix_map(np.eye(2, dtype=bool), name="A")),
    ("matrix_map-complex-array", InvalidParameterError, "A", lambda: matrix_map(np.eye(2, dtype=complex), name="A")),
    ("Box-bool-bound", InvalidParameterError, "bound", lambda: sets.Box(np.array([False]), [1.0])),
    ("Box-complex-bound", InvalidParameterError, "bound", lambda: sets.Box([0.0], np.array([1 + 0j]))),
    ("ScalarKind.prox-bool-array", InvalidInputError, "points", lambda: H.prox(np.array([True, False]))),
    ("ScalarKind.prox-complex-array", InvalidInputError, "points", lambda: H.prox(np.array([2.0 + 1j]))),
    ("ScalarKind.value-complex-array", InvalidInputError, "points", lambda: H.value(np.array([2.0 + 0j]))),
    # scales and scalar points: a bool or a string is not a number
    ("ProxFn.prox-bool-scale", InvalidParameterError, "scale", lambda: ZERO1.prox(True, [0.5])),
    ("ProxFn.prox-string-scale", InvalidParameterError, "scale", lambda: ZERO1.prox("2", [0.5])),
    ("ScalarKind.prox-string-point", InvalidInputError, "points", lambda: H.prox("2")),
    ("ScalarKind.prox-bool-point", InvalidInputError, "points", lambda: H.prox(True)),
    ("ScalarKind.value-string-point", InvalidInputError, "points", lambda: H.value("2")),
    ("ScalarKind.value-bool-in-list", InvalidInputError, "points", lambda: H.value([1.0, True])),
    ("basis_separable-nan", InvalidParameterError, "basis", lambda: cat.basis_separable([H], [[math.nan]])),
    ("basis_separable-bool", InvalidParameterError, "basis", lambda: cat.basis_separable([H], [[True]])),
    ("basis_separable-string", InvalidParameterError, "basis", lambda: cat.basis_separable([H], [["1"]])),
    ("basis_separable-not-square", InvalidParameterError, "basis",
     lambda: cat.basis_separable([H, H], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
    ("basis_separable-not-orthonormal", InvalidParameterError, "basis",
     lambda: cat.basis_separable([H, H], [[1.0, 1.0], [0.0, 1.0]])),
    ("matrix_map-nan", InvalidParameterError, "A", lambda: matrix_map([[1.0, math.nan]], name="A")),
    ("AffineSubspace-nan", InvalidParameterError, "A", lambda: sets.AffineSubspace([[math.inf, 1.0]], [0.0])),
    ("AffineSubspace-b-length", InvalidParameterError, "b", lambda: sets.AffineSubspace([[1.0, 0.0]], [1.0, 2.0])),
    # every dimension is an integer >= 1
    ("Box-empty", InvalidParameterError, "dimension", lambda: sets.Box([], [])),
    ("Box-lengths", InvalidParameterError, "bounds", lambda: sets.Box([0.0, 0.0], [1.0])),
    ("Ball-empty", InvalidParameterError, "center", lambda: sets.Ball([], 1.0)),
    ("AffineSubspace-no-rows", InvalidParameterError, "rows", lambda: sets.AffineSubspace(np.zeros((0, 2)), [])),
    ("AffineSubspace-no-columns", InvalidParameterError, "columns", lambda: sets.AffineSubspace([[]], [0.0])),
    ("quadratic_deviation-empty", InvalidParameterError, "r", lambda: cat.quadratic_deviation([])),
    ("first_difference-fractional", InvalidParameterError, "n", lambda: problems.first_difference(2.5)),
    ("first_difference-short", InvalidParameterError, "n", lambda: problems.first_difference(1)),
    ("LinearMap-fractional-rows", InvalidParameterError, "rows", lambda: LinearMap(2.5, 2, lambda x: x, lambda u: u)),
    ("LinearMap-no-cols", InvalidParameterError, "cols", lambda: LinearMap(2, 0, lambda x: x, lambda u: u)),
    ("identity_map-fractional", InvalidParameterError, "n", lambda: identity_map(2.5)),
    ("separable-fractional-dim", InvalidParameterError, "dim", lambda: cat.separable([H, H], dim=2.5)),
    # schedule values through as_real
    ("Schedule-callable-string", InvalidParameterError, "gamma",
     lambda: solvers.forward_backward(ZERO2, problems.set_distance_smooth(BOX2), Schedule(gamma=lambda n: "0.5"))),
    # catalog
    ("separable-broadcast-without-dim", InvalidParameterError, "dim", lambda: cat.separable(H)),
    ("separable-no-kinds", InvalidParameterError, "kinds", lambda: cat.separable([])),
    ("separable-dim-mismatch", InvalidParameterError, "dimension", lambda: cat.separable([H, H], dim=3)),
    ("weighted_l1-zero-weight", InvalidParameterError, "weights", lambda: cat.weighted_l1([1.0, 0.0])),
    ("tight_frame_compose-dimension", InvalidParameterError, "dimension",
     lambda: cat.tight_frame_compose(cat.zero_fn(3), I2)),
    ("stacked-empty", InvalidParameterError, "stacked", lambda: cat.stacked([])),
    # problem builders
    ("least_squares_smooth-zero-operator", InvalidParameterError, "operator",
     lambda: problems.least_squares_smooth(_zero_map(2), [1.0, 2.0])),
    ("least_squares_smooth-overflowing-norm", InvalidParameterError, "L",
     lambda: problems.least_squares_smooth(matrix_map(np.diag([1e170, 2e170])), [1.0, 2.0])),
    ("constrained_least_squares-dimension", InvalidInputError, "dimension",
     lambda: problems.build_constrained_least_squares(I2, [1.0, 2.0], BOX1)),
    ("lasso-weights", InvalidParameterError, "weight",
     lambda: problems.build_lasso(np.eye(2), [1.0, 2.0], [1.0, 1.0, 1.0])),
    ("best_approximation-dimension", InvalidInputError, "dimension",
     lambda: problems.build_best_approximation(BOX1, BOX2, [0.0])),
    ("denoise-dimension", InvalidInputError, "dimension", lambda: problems.build_denoise(ZERO1, ZERO2, [0.0])),
    ("tv1d-length", InvalidParameterError, "length", lambda: problems.build_tv1d([1.0], 1.0)),
    ("feasibility-no-sets", InvalidInputError, "set", lambda: problems.build_feasibility([])),
    ("feasibility-dimension", InvalidInputError, "dimension", lambda: problems.build_feasibility([BOX1, BOX2])),
    # solvers
    ("ppxa-no-functions", InvalidInputError, "function", lambda: solvers.ppxa([], [])),
    ("parallel_dykstra-dimension", InvalidInputError, "dimension",
     lambda: solvers.parallel_dykstra([ZERO1, ZERO2], [0.5, 0.5], [0.0])),
    ("dual_forward_backward-zero-operator", InvalidParameterError, "operator",
     lambda: solvers.dual_forward_backward(ZERO2, ZERO2, _zero_map(2), [1.0, 2.0])),
    # ||L|| = 2e-170 is found, but its square is 0
    ("dual_forward_backward-underflowing-norm", InvalidParameterError, "L",
     lambda: solvers.dual_forward_backward(ZERO2, ZERO2, matrix_map(np.diag([1e-170, 2e-170])), [1.0, 2.0])),
    ("admm-g-dimension", InvalidInputError, "dimension", lambda: solvers.admm(None, I2, cat.zero_fn(3))),
    ("sdmm-no-branches", InvalidInputError, "sdmm", lambda: solvers.sdmm([], [])),
    ("sdmm-domains", InvalidInputError, "domain",
     lambda: solvers.sdmm([ZERO2, ZERO2], [I2, matrix_map(np.eye(2, 3))])),
    ("sdmm-g-dimension", InvalidInputError, "dimension", lambda: solvers.sdmm([cat.zero_fn(3)], [I2])),
    # core and cli
    ("SolveResult-count", InvalidParameterError, "iteration count", lambda: SolveResult(np.zeros(1), False, 2, ())),
    ("read_trace-header", InvalidInputError, "header", lambda: read_trace(os.devnull)),
    ("read_trace-short-row", InvalidInputError, "line 3", lambda: _read_trace_rows("1,0.5,0.25,10", "2,0.5,0.25")),
    ("read_trace-long-row", InvalidInputError, "line 2", lambda: _read_trace_rows("1,0.5,0.25,10,7")),
    ("read_trace-not-a-float", InvalidInputError, "line 2", lambda: _read_trace_rows("1,abc,0.25,10")),
    ("read_trace-not-an-int", InvalidInputError, "line 3", lambda: _read_trace_rows("1,0.5,0.25,10", "2.5,0.5,0.25,10")),
    ("read_trace-blank-row", InvalidInputError, "line 3", lambda: _read_trace_rows("1,0.5,0.25,10", "", "3,0.5,0.25,10")),
    # malformed rows in the middle of a long trace and on its last rows
    *((f"read_trace-{label}", InvalidInputError, f"line {line}", lambda rows=rows: _read_trace_rows(*rows))
      for label, rows, line in _LONG_BAD_TRACES),
]


def _read_trace_rows(*rows, read=read_trace, end="\n"):
    """``read`` of a file with the trace header and ``rows``, each but the
    last followed by a newline and the last by ``end``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        with open(path, "w") as fh:
            fh.write("\n".join([TRACE_HEADER, *rows]) + end)
        return read(path)


@pytest.mark.parametrize("rows, line", [pytest.param(rows, line, id=label) for label, rows, line in _LONG_BAD_TRACES])
def test_trace_errors_equal_the_per_line_reader(rows, line):
    messages = []
    for read in (read_trace, read_trace_per_line):
        with pytest.raises(InvalidInputError) as info:
            _read_trace_rows(*rows, read=read)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"trace line {line}: ")


def test_a_trace_without_its_final_newline_reads():
    rows = _long_trace([], 0)
    records = _read_trace_rows(*rows, end="")
    assert records == _read_trace_rows(*rows) == _read_trace_rows(*rows, read=read_trace_per_line, end="")
    assert _read_trace_rows(end="") == _read_trace_rows() == []  # the header alone
    n = _LONG_TRACE_ROWS
    assert len(records) == n and records[-1] == IterationRecord(n, 1.0 / n, 0.5**n, 1000 * n)


@pytest.mark.parametrize("error, word, make", [pytest.param(*case[1:], id=case[0]) for case in BAD_INPUTS])
def test_bad_input_raises_named_error(error, word, make):
    with pytest.raises(error, match=rf"\b{word}\b"):
        make()


def test_affine_support_is_finite_on_the_row_space():
    C = sets.AffineSubspace([[1.0, 1.0]], [2.0])  # x0 = (1, 1)
    assert C.support([3.0, 3.0]) == pytest.approx(6.0)
    assert C.support([1.0, 0.0]) == math.inf


def test_support_plus_radial_inside_the_flat_part_of_phi():
    # f = ||x|| + max(||x|| - 1, 0): at x = (1.5, 0), x - P_C x = (0.5, 0) lies
    # where phi is flat, so it is the prox, and x - p = (1, 0) is a subgradient
    f = cat.support_plus_radial(sets.Ball([0.0, 0.0], 1.0), cat.Deadzone(1.0), argmin_max=1.0)
    p = f.prox(1.0, [1.5, 0.0])
    assert p.tolist() == [0.5, 0.0]
    assert core.subgradient_certificate(f, [1.5, 0.0], p) <= 1e-12


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
