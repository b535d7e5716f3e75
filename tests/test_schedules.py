"""Schedule validation of the five schedule-taking solvers.

For each solver: the default epsilon is accepted and epsilon at 0 or at the
upper end of its interval is rejected; every relaxation (and, for the two
forward-backward-type solvers, step-size) value just outside either end of
its admissible interval is rejected as a constant, as a finite sequence that
leaves the interval at a later entry (before any prox call), and as a
callable that leaves it at n = 3 (at that iteration); values at and just
inside each end are accepted.  A schedule field that a solver does not read
is rejected rather than ignored.  A finite sequence is read once per solve and
is held at its last value; an empty one is rejected before any prox call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from proxsplit import catalog as cat
from proxsplit.core import InvalidScheduleError, ProxFn, Schedule, matrix_map, operator_norm
from proxsplit import sets
from proxsplit.problems import (
    build_denoise,
    build_feasibility,
    build_lasso,
    first_difference,
    least_squares_smooth,
    run_instance,
)
from proxsplit.solvers import (
    StoppingRule,
    douglas_rachford,
    dual_forward_backward,
    forward_backward,
    forward_backward_const,
    ppxa,
)

RUN = StoppingRule(tol=1e-300, max_iter=6)  # never stops early on these inputs


class Counted:
    """A ProxFn wrapper counting its prox calls."""

    def __init__(self, f: ProxFn):
        self.calls = 0

        def prox_impl(gamma, x):
            self.calls += 1
            return f.prox(gamma, x)

        self.fn = ProxFn(dim=f.dim, value=f.value, prox_impl=prox_impl, name=f.name)


@dataclass
class Case:
    run: Callable  # (schedule, stop) -> SolveResult
    counted: Counted
    eps_hi: float  # epsilon lies in ]0, eps_hi[
    intervals: Callable  # epsilon -> {"gamma"/"lambda": (lo, hi)}
    calls_at_n3: int  # prox calls of the counted function before n = 3 is rejected


def _lasso_data():
    rng = np.random.default_rng(11)
    return 0.5 * rng.standard_normal((5, 3)), rng.standard_normal(5)  # beta below 10


def _fb_case(name: str) -> Case:
    A, y = _lasso_data()
    f1 = Counted(cat.weighted_l1(np.full(3, 0.02)))
    f2 = least_squares_smooth(matrix_map(A), y)
    beta = f2.lipschitz
    if name == "forward_backward":
        return Case(
            lambda s, stop: forward_backward(f1.fn, f2, s, stop=stop),
            f1,
            min(1.0, 1.0 / beta),
            lambda eps: {"gamma": (eps, 2.0 / beta - eps), "lambda": (eps, 1.0)},
            3,
        )
    return Case(
        lambda s, stop: forward_backward_const(f1.fn, f2, s, stop=stop),
        f1,
        0.75,
        lambda eps: {"lambda": (eps, 1.5 - eps)},
        3,
    )


def _dr_case() -> Case:
    A, y = _lasso_data()
    f1 = Counted(cat.weighted_l1(np.full(3, 0.02)))
    f2 = cat.quadratic(matrix_map(A), y, 1.0)
    return Case(
        lambda s, stop: douglas_rachford(f1.fn, f2, gamma=0.5, schedule=s, stop=stop),
        f1,
        1.0,
        lambda eps: {"lambda": (eps, 2.0 - eps)},
        3,  # f1's prox follows the lambda check
    )


def _dual_fb_case() -> Case:
    n = 6
    r = np.random.default_rng(12).standard_normal(n)
    L = first_difference(n)
    g = Counted(cat.weighted_l1(np.full(n - 1, 0.2)))
    bound = operator_norm(L) ** 2
    return Case(
        lambda s, stop: dual_forward_backward(cat.zero_fn(n), g.fn, L, r, schedule=s, stop=stop),
        g,
        min(1.0, 1.0 / bound),
        lambda eps: {"gamma": (eps, 2.0 / bound - eps), "lambda": (eps, 1.0)},
        3,  # g's prox (through the conjugate) follows the checks
    )


def _ppxa_case() -> Case:
    A, y = _lasso_data()
    f1 = Counted(cat.weighted_l1(np.full(3, 0.02)))
    f_list = [cat.quadratic(matrix_map(A), y, 1.0), f1.fn]
    return Case(
        lambda s, stop: ppxa(f_list, [0.5, 0.5], gamma=0.5, schedule=s, stop=stop),
        f1,
        1.0,
        lambda eps: {"lambda": (eps, 2.0 - eps)},
        4,  # the branch proxes precede the lambda check
    )


CASE_NAMES = ("forward_backward", "forward_backward_const", "douglas_rachford", "dual_forward_backward", "ppxa")


def make_case(name: str) -> Case:
    if name in ("forward_backward", "forward_backward_const"):
        return _fb_case(name)
    return {"douglas_rachford": _dr_case, "dual_forward_backward": _dual_fb_case, "ppxa": _ppxa_case}[name]()


EPS = 0.01  # explicit margin for the interval-edge tests (inside ]0, eps_hi[ for every case)
FIELD = {"gamma": "gamma", "lambda": "lam"}


def _edges():
    for name in CASE_NAMES:
        for param in make_case(name).intervals(EPS):
            for end in ("lo", "hi"):
                yield name, param, end


def _outside(lo: float, hi: float, end: str) -> float:
    return np.nextafter(lo, -np.inf) if end == "lo" else np.nextafter(hi, np.inf)


def _inside_values(lo: float, hi: float, end: str) -> tuple:
    edge = lo if end == "lo" else hi
    return edge, np.nextafter(edge, hi if end == "lo" else lo)


def _schedule(param: str, value) -> Schedule:
    return Schedule(epsilon=EPS, **{FIELD[param]: value})


@pytest.mark.parametrize("name", CASE_NAMES)
class TestEpsilon:
    def test_default_accepted(self, name):
        case = make_case(name)
        res = case.run(None, RUN)
        assert res.iterations == RUN.max_iter
        res = case.run(Schedule(), RUN)
        assert res.iterations == RUN.max_iter

    @pytest.mark.parametrize("where", ("zero", "upper"))
    def test_end_rejected(self, name, where):
        case = make_case(name)
        eps = 0.0 if where == "zero" else case.eps_hi
        with pytest.raises(InvalidScheduleError) as err:
            case.run(Schedule(epsilon=eps), RUN)
        assert "admissible interval" in str(err.value)
        assert case.counted.calls == 0

    def test_just_inside_accepted(self, name):
        case = make_case(name)
        for eps in (1e-300, np.nextafter(case.eps_hi, 0.0)):
            # the defaults can leave a narrowed interval, so take its midpoints
            mids = {FIELD[p]: 0.5 * (lo + hi) for p, (lo, hi) in case.intervals(eps).items()}
            assert case.run(Schedule(epsilon=eps, **mids), RUN).iterations == RUN.max_iter


@pytest.mark.parametrize("name,param,end", list(_edges()))
class TestIntervalEdges:
    def test_constant_outside_rejected(self, name, param, end):
        case = make_case(name)
        lo, hi = case.intervals(EPS)[param]
        with pytest.raises(InvalidScheduleError) as err:
            case.run(_schedule(param, _outside(lo, hi, end)), RUN)
        assert "admissible interval [" in str(err.value)
        assert case.counted.calls == 0

    def test_sequence_rejected_before_first_prox(self, name, param, end):
        case = make_case(name)
        lo, hi = case.intervals(EPS)[param]
        inside = 0.5 * (lo + hi)
        with pytest.raises(InvalidScheduleError):
            case.run(_schedule(param, [inside, inside, inside, _outside(lo, hi, end)]), RUN)
        assert case.counted.calls == 0

    def test_callable_rejected_at_n3(self, name, param, end):
        case = make_case(name)
        lo, hi = case.intervals(EPS)[param]
        inside, outside = 0.5 * (lo + hi), _outside(lo, hi, end)
        seen = []

        def value(n):
            seen.append(n)
            return inside if n < 3 else outside

        with pytest.raises(InvalidScheduleError) as err:
            case.run(_schedule(param, value), RUN)
        assert "admissible interval [" in str(err.value)
        assert seen == [0, 0, 1, 2, 3]  # probed at n = 0, then once per iteration
        assert case.counted.calls == case.calls_at_n3

    def test_inside_accepted(self, name, param, end):
        case = make_case(name)
        lo, hi = case.intervals(EPS)[param]
        for value in _inside_values(lo, hi, end):
            assert case.run(_schedule(param, value), RUN).iterations == RUN.max_iter
            assert case.run(_schedule(param, [0.5 * (lo + hi), value]), RUN).iterations == RUN.max_iter
            assert case.run(_schedule(param, lambda n, v=value: v), RUN).iterations == RUN.max_iter


class CountingList(list):
    """A list that counts how often it is iterated."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def _params():
    for name in CASE_NAMES:
        for param in make_case(name).intervals(EPS):
            yield name, param


@pytest.mark.parametrize("name,param", list(_params()))
class TestFiniteSequence:
    def test_read_once_per_solve(self, name, param):
        case = make_case(name)
        lo, hi = case.intervals(EPS)[param]
        values = CountingList([0.5 * (lo + hi), hi])
        res = case.run(_schedule(param, values), StoppingRule(tol=1e-300, max_iter=200))
        assert res.iterations > 50  # a read per iteration would show
        assert values.reads == 1

    def test_held_at_last_value(self, name, param):
        case = make_case(name)
        lo, hi = case.intervals(EPS)[param]
        a, b = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)

        def same(s, t):
            ra, rb = case.run(_schedule(param, s), RUN), case.run(_schedule(param, t), RUN)
            assert ra.final_x.tobytes() == rb.final_x.tobytes()
            assert [(r.objective, r.residual) for r in ra.records] == [(r.objective, r.residual) for r in rb.records]

        same([a, b], lambda n: a if n == 0 else b)
        same([a], lambda n: a)
        same(a, [a])

    def test_empty_rejected_before_first_prox(self, name, param):
        case = make_case(name)
        with pytest.raises(InvalidScheduleError, match="empty schedule sequence"):
            case.run(_schedule(param, []), RUN)
        assert case.counted.calls == 0


@pytest.mark.parametrize("name", ("forward_backward_const", "douglas_rachford", "ppxa"))
@pytest.mark.parametrize("gamma", (0.5, 1e6, -3.0))
def test_schedule_gamma_rejected_where_the_step_is_fixed(name, gamma):
    # the step of these solvers is 1/beta or their gamma= argument
    case = make_case(name)
    with pytest.raises(InvalidScheduleError) as err:
        case.run(Schedule(gamma=gamma), RUN)
    assert "schedule gamma is not read" in str(err.value)
    assert case.counted.calls == 0


def _no_schedule_instances():
    A, y = _lasso_data()
    lasso = build_lasso(A, y, [0.02])
    denoise = build_denoise(cat.weighted_l1(np.ones(3)), cat.zero_fn(3), [3.0, -0.5, 1.2])
    feasibility = build_feasibility([sets.Box(np.zeros(2), np.ones(2))])
    return [(lasso, "fista"), (lasso, "sdmm"), (denoise, "dykstra_like"), (denoise, "parallel_dykstra"),
            (feasibility, "pocs")]


class TestSolversWithoutSchedule:
    """fista, sdmm, pocs and the two Dykstra solvers read no schedule field."""

    @pytest.mark.parametrize("field", ("gamma", "lam", "epsilon"))
    def test_any_field_rejected(self, field):
        for inst, tag in _no_schedule_instances():
            with pytest.raises(InvalidScheduleError, match=f"solver '{tag}' reads no schedule field"):
                run_instance(inst, tag, Schedule(**{field: 0.5}), stop=RUN)

    def test_fields_that_would_be_out_of_range_rejected(self):
        inst, tag = _no_schedule_instances()[0]
        with pytest.raises(InvalidScheduleError):
            run_instance(inst, tag, Schedule(lam=5.0, gamma=-3), stop=RUN)

    def test_empty_schedule_accepted(self):
        for inst, tag in _no_schedule_instances():
            for schedule in (None, Schedule()):
                assert run_instance(inst, tag, schedule, stop=RUN).iterations >= 1, tag

    def test_douglas_rachford_instance_rejects_schedule_gamma(self):
        inst = _no_schedule_instances()[0][0]
        with pytest.raises(InvalidScheduleError, match="schedule gamma is not read"):
            run_instance(inst, "douglas_rachford", Schedule(gamma=1e6), stop=RUN)
        assert run_instance(inst, "douglas_rachford", Schedule(lam=1.5), stop=RUN).iterations == RUN.max_iter
