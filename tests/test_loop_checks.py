"""Where the solver loops check: an implementation's input and output on
iteration 0, the iterate on every iteration.

``solvers._Run`` hands each loop its implementations, checked on iteration 0
and bare from iteration 1 on, where the loop calls ``prox_impl``,
``grad_impl``, ``apply_impl`` and ``adjoint_impl`` directly and uses their
outputs as they are.  That changes no bits because every catalog and set
implementation returns a 1-D float64 array of its dimension, which
``as_vector`` would hand back unchanged.  A user implementation that returns
anything else is stopped on iteration 0, a vector of the wrong dimension
never reaches an implementation, and a run whose iterate overflows ends in a
named error."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import catalog_zoo
from proxsplit import catalog as cat
from proxsplit import problems, sets, solvers
from proxsplit.catalog import SCALAR_KINDS
from proxsplit.core import (
    InvalidInputError,
    InvalidParameterError,
    LinearMap,
    ProxFn,
    SmoothFn,
    identity_map,
    matrix_map,
)
from proxsplit.scalar import BracketingError

SET_INDICATORS = [
    sets.indicator(C)
    for C in (
        sets.Box([-1.0, 0.0, -np.inf], [1.0, np.inf, 2.0]),
        sets.Ball([0.2, -0.1, 0.3], 1.5),
        sets.point([1.0, 2.0, 3.0]),
        sets.Halfspace([1.0, 1.0, -1.0], 0.5),
        sets.Hyperplane([1.0, -2.0, 0.5], 1.0),
        sets.AffineSubspace([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], [1.0, 0.5]),
        sets.orthant(3),
    )
]


@pytest.mark.parametrize("f", catalog_zoo() + SET_INDICATORS, ids=lambda f: f.name)
def test_every_prox_impl_returns_a_float64_vector(f):
    rng = np.random.default_rng(5)
    for gamma in (0.3, 1.0, 4.0):
        for x in (np.zeros(f.dim), rng.standard_normal(f.dim), 5.0 * rng.standard_normal(f.dim)):
            p = f.prox_impl(gamma, x)
            assert type(p) is np.ndarray and p.dtype == np.float64 and p.shape == (f.dim,)


def test_every_grad_and_map_impl_returns_a_float64_vector():
    rng = np.random.default_rng(6)
    L = matrix_map(rng.standard_normal((4, 3)))
    smooth = [
        problems.least_squares_smooth(L, rng.standard_normal(4)),
        problems.least_squares_smooth(problems.first_difference(3), rng.standard_normal(2)),
        problems.set_distance_smooth(sets.Ball([0.0, 1.0, 0.0], 0.5)),
    ]
    maps = [L, identity_map(3), problems.first_difference(3)]
    for x in (np.zeros(3), rng.standard_normal(3)):
        outputs = [(f.grad_impl(x), 3) for f in smooth] + [(M.apply_impl(x), M.rows) for M in maps]
        outputs += [(M.adjoint_impl(rng.standard_normal(M.rows)), 3) for M in maps]
        for out, dim in outputs:
            assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (dim,)


@pytest.mark.parametrize("f", catalog_zoo()[: len(SCALAR_KINDS)], ids=list(SCALAR_KINDS))
def test_a_nan_coordinate_never_becomes_a_number(f):
    # from iteration 1 on, an overflow inside an iteration reaches prox_impl
    # unchecked: it must show in the iterate or raise a named error
    try:
        with np.errstate(invalid="ignore"):
            p = f.prox_impl(1.0, np.array([np.nan, 0.5]))
    except (InvalidParameterError, BracketingError):
        return
    assert np.isnan(p[0])


class Counted:
    """``impl`` with a count of its calls."""

    def __init__(self, impl):
        self.calls = 0
        self.impl = impl

    def __call__(self, *args):
        self.calls += 1
        return self.impl(*args)


BAD_OUTPUTS = {
    "list": lambda v: [float(t) for t in v],
    "short": lambda v: v[:-1].copy(),
    "float32": lambda v: v.astype(np.float32),
}
RUN = solvers.StoppingRule(tol=1e-300, max_iter=5)
R = np.array([1.0, -2.0])
ZERO = cat.zero_fn(2)
QUAD = cat.quadratic_deviation(R)
SMOOTH = problems.least_squares_smooth(identity_map(2), R)
FLAT = SmoothFn(dim=2, value=lambda x: np.zeros(x.shape[:-1]), grad_impl=lambda x: np.zeros(2), lipschitz=1.0)
I2 = identity_map(2)


def _prox_runs(f, stop=RUN):
    """Every loop that calls a prox implementation directly, with ``f`` in
    one of its prox slots, each slot one whose output the next iteration's
    argument grows with."""
    return {
        "forward_backward": lambda: solvers.forward_backward(f, FLAT, stop=stop),
        "forward_backward_const": lambda: solvers.forward_backward_const(f, FLAT, stop=stop),
        "fista": lambda: solvers.fista(f, FLAT, stop=stop),
        "douglas_rachford": lambda: solvers.douglas_rachford(f, ZERO, stop=stop),
        "dykstra_like": lambda: solvers.dykstra_like(QUAD, f, R, stop=stop),
        "dual_forward_backward": lambda: solvers.dual_forward_backward(f, QUAD, I2, R, stop=stop),
        "admm": lambda: solvers.admm(None, I2, f, stop=stop),
        "ppxa": lambda: solvers.ppxa([QUAD, f], [0.5, 0.5], stop=stop),
        "parallel_dykstra": lambda: solvers.parallel_dykstra([QUAD, f], [0.5, 0.5], R, stop=stop),
        "sdmm": lambda: solvers.sdmm([f], [I2], stop=stop),
    }


PROX_SOLVERS = tuple(_prox_runs(ZERO))


@pytest.mark.parametrize("bad", BAD_OUTPUTS)
@pytest.mark.parametrize("solver", PROX_SOLVERS)
def test_bad_prox_impl_output_raises_on_iteration_0(solver, bad):
    impl = Counted(lambda gamma, x: BAD_OUTPUTS[bad](x))
    f = ProxFn(dim=2, value=lambda x: np.zeros(x.shape[:-1]), prox_impl=impl, name="bad")
    with pytest.raises(InvalidInputError, match="bad.prox_impl|dimension"):
        _prox_runs(f)[solver]()
    assert impl.calls == 1


@pytest.mark.parametrize("bad", BAD_OUTPUTS)
@pytest.mark.parametrize("solver", ("forward_backward", "forward_backward_const", "fista"))
def test_bad_grad_impl_output_raises_on_iteration_0(solver, bad):
    impl = Counted(lambda x: BAD_OUTPUTS[bad](x - R))
    f2 = SmoothFn(dim=2, value=SMOOTH.value, grad_impl=impl, lipschitz=1.0, name="bad")
    with pytest.raises(InvalidInputError, match="bad.grad_impl|dimension"):
        getattr(solvers, solver)(ZERO, f2, stop=RUN)
    assert impl.calls == 1


@pytest.mark.parametrize("bad", BAD_OUTPUTS)
@pytest.mark.parametrize("which", ("apply", "adjoint"))
def test_bad_linear_map_output_raises_by_iteration_0(which, bad):
    # operator_norm's first call on a map goes through the public methods:
    # they refuse a wrong length but convert a list or a float32 array, which
    # the loop's check on iteration 0 then refuses (test_norm_memo.py covers a
    # second solve, where the memo skips those calls)
    impl = lambda v: BAD_OUTPUTS[bad](2.0 * v)
    good = lambda v: 2.0 * v
    L = LinearMap(2, 2, impl if which == "apply" else good, impl if which == "adjoint" else good, name="bad")
    with pytest.raises(InvalidInputError, match=f"bad.{which}_impl|dimension"):
        solvers.dual_forward_backward(ZERO, QUAD, L, R, stop=RUN)


# functions, operators and start points whose dimensions disagree raise a
# named error on entry or at iteration 0, naming the function

ODD = replace(cat.zero_fn(3), name="odd")
ODD_SMOOTH = replace(problems.least_squares_smooth(identity_map(3), [1.0, 2.0, 3.0]), name="odd")
CENTER3 = solvers.QuadraticTerm(1.0, [1.0, 2.0, 3.0])
MISMATCHED = {
    "forward_backward": lambda: solvers.forward_backward(ZERO, ODD_SMOOTH, stop=RUN),
    "forward_backward_const": lambda: solvers.forward_backward_const(ZERO, ODD_SMOOTH, stop=RUN),
    "fista": lambda: solvers.fista(ZERO, ODD_SMOOTH, stop=RUN),
    "douglas_rachford": lambda: solvers.douglas_rachford(ZERO, ODD, stop=RUN),
    "dykstra_like": lambda: solvers.dykstra_like(QUAD, ODD, R, stop=RUN),
    "dual_forward_backward-h": lambda: solvers.dual_forward_backward(ODD, QUAD, I2, [1.0, 2.0, 3.0], stop=RUN),
    "dual_forward_backward-g": lambda: solvers.dual_forward_backward(ZERO, ODD, I2, R, stop=RUN),
    "admm-g": lambda: solvers.admm(None, I2, ODD, stop=RUN),
    "admm-center": lambda: solvers.admm(CENTER3, I2, ZERO, stop=RUN),
    "prox_l-center": lambda: solvers.prox_l(CENTER3, I2, R),
    "ppxa": lambda: solvers.ppxa([QUAD, ODD], [0.5, 0.5], stop=RUN),
    "parallel_dykstra": lambda: solvers.parallel_dykstra([QUAD, ODD], [0.5, 0.5], R, stop=RUN),
    "sdmm": lambda: solvers.sdmm([ZERO, ODD], [I2, I2], stop=RUN),
}


@pytest.mark.parametrize("case", MISMATCHED)
def test_mismatched_dimensions_raise_a_named_error(case):
    with pytest.raises(InvalidInputError, match="QuadraticTerm center" if "center" in case else "odd"):
        MISMATCHED[case]()


# where the odd function fixes the loop's space, the check fails on a correct
# one, and its message states the odd one's dimension too
ODD_FIRST = {
    "douglas_rachford": lambda f, g: solvers.douglas_rachford(f, g, stop=RUN),
    "ppxa": lambda f, g: solvers.ppxa([f, g], [0.5, 0.5], stop=RUN),
}


@pytest.mark.parametrize("solver", ODD_FIRST)
def test_the_message_names_the_odd_function_that_fixed_the_space(solver):
    odd3 = cat.weighted_l1(np.ones(3))
    q = cat.quadratic_deviation([1.0, 2.0])
    with pytest.raises(InvalidInputError) as err:
        ODD_FIRST[solver](odd3, q)
    message = str(err.value)
    assert "quadratic_deviation.prox_impl takes a vector of dimension 2, got 3" in message
    assert "separable.prox_impl 3" in message


@pytest.mark.parametrize("solver", PROX_SOLVERS)
def test_a_wrong_dimension_vector_never_reaches_prox_impl(solver):
    impl = Counted(lambda gamma, x: x.copy())
    f = ProxFn(dim=3, value=lambda x: np.zeros(x.shape[:-1]), prox_impl=impl, name="three")
    with pytest.raises(InvalidInputError, match="dimension"):
        _prox_runs(f)[solver]()
    assert impl.calls == 0


# a run whose iterate overflows ends in a named error that names finiteness

BIG = np.array([1e308, -1e308])


def _lasso_overflow_runs():
    f1, f2 = cat.weighted_l1([1.0, 1.0]), problems.least_squares_smooth(matrix_map(np.eye(2)), BIG)
    inst = problems.build_lasso(np.eye(2), BIG, [1.0, 1.0])
    return {
        # gamma = 1.9 / beta: gamma * grad overflows
        "forward_backward": lambda: problems.run_instance(inst, "forward_backward", stop=RUN),
        # gamma = 1 / beta: from -y, x - y overflows
        "forward_backward_const": lambda: solvers.forward_backward_const(f1, f2, x0=-BIG, stop=RUN),
        "fista": lambda: solvers.fista(f1, f2, x0=-BIG, stop=RUN),
    }


@pytest.mark.parametrize("solver", tuple(_lasso_overflow_runs()))
def test_lasso_overflow_names_finiteness(solver):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError, match="finite"):
        _lasso_overflow_runs()[solver]()


@pytest.mark.parametrize("solver", PROX_SOLVERS)
def test_growing_iterate_names_finiteness(solver):
    # not a prox: it multiplies its argument by 1e100, so the iterate leaves
    # the float range a few iterations in, after the checks of iteration 0
    impl = Counted(lambda gamma, x: 1e100 * x + 1.0)
    grow = ProxFn(dim=2, value=lambda x: np.zeros(x.shape[:-1]), prox_impl=impl, name="grow")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError, match="finite"):
        _prox_runs(grow, solvers.StoppingRule(tol=1e-300, max_iter=100))[solver]()
    assert impl.calls > 1
