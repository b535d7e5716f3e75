"""Splitting algorithms.

Every solver consumes function/operator objects plus an optional ``Schedule``
and ``StoppingRule`` and returns a ``SolveResult`` with a per-iteration trace
(objective, iterate-change residual, elapsed nanoseconds).

Stopping, decided for every loop by ``_Run.done``, is based on the relative
iterate change ||x_{n+1} - x_n|| / max(1, ||x_n||); solvers whose convergence
theory rests on a fixed-point identity (forward-backward family,
Douglas-Rachford) also require the corresponding relative fixed-point gap to
fall below the same tolerance, so the identity holds at termination up to a
small multiple of the tolerance.  Initial points default to the zero vector (or to the reference
point where the algorithm prescribes it).

Checks happen at the boundary, not inside the loop.  The public methods
(``prox``, ``grad``, ``apply``, ``adjoint``) check their arguments and their
implementation's output on every call.  A solver checks its arguments on
entry, its implementations on iteration 0 (``_checked``: a vector of the
input dimension in, a finite float64 vector of the output dimension out),
and its iterate on every iteration (``_Run.done``).  ``_Run`` hands every
loop but ``pocs`` its implementations: from iteration 1 on ``prox_impl``,
``grad_impl``, ``apply_impl`` and ``adjoint_impl`` themselves, whose outputs
are used as they are, the bytes the public methods would return.

A solver reaches a linear map only through its apply and adjoint, except
the x-step inversion of ``admm``, ``prox_l`` and ``sdmm``, one system
(a I + sum_i L_i^T L_i) x = b for ``core._gram_solver``, which reads the Gram
factorization of each map that is not a square tight frame, once per map.

Hypotheses that cannot be checked mechanically (coercivity of the sum,
relative-interior qualification conditions, nonempty domain intersections)
are documented with each solver; their violation surfaces as
``converged=False`` at the iteration cap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat

import numpy as np

from .catalog import conjugate
from .core import (
    Array,
    InvalidInputError,
    InvalidParameterError,
    InvalidScheduleError,
    IterationRecord,
    LinearMap,
    ProxFn,
    Schedule,
    SmoothFn,
    SolveResult,
    UnsupportedFunctionError,
    _gram_solver,
    _norm_squared,
    as_count,
    as_points,
    as_real,
    as_vector,
    norm,
    operator_norm,
    pow2,
)

__all__ = [
    "StoppingRule",
    "QuadraticTerm",
    "pocs",
    "forward_backward",
    "forward_backward_const",
    "fista",
    "douglas_rachford",
    "dykstra_like",
    "dual_forward_backward",
    "prox_l",
    "admm",
    "ppxa",
    "parallel_dykstra",
    "sdmm",
    "fb_fixed_point_residual",
    "dr_two_level_residual",
]


@dataclass(frozen=True)
class StoppingRule:
    """Relative iterate-change threshold, iteration cap, and the cadence at
    which the objective is re-evaluated for the trace (every iteration up to
    ``objective_dense_until``, then every ``objective_stride``-th, carrying
    the last computed value in between).  Each solver's objective takes a
    (k, n) stack of iterates and returns their k values."""

    tol: float = 1e-10
    max_iter: int = 100_000
    objective_dense_until: int = 1000
    objective_stride: int = 10

    def __post_init__(self):
        object.__setattr__(self, "tol", as_real(self.tol, "tol", above=0.0))
        for name, least in (("max_iter", 1), ("objective_dense_until", 0), ("objective_stride", 1)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, least))


# the iterates awaiting their objective are held in a block of at most this
# many rows and entries (one row for vectors longer than the entry budget)
_BLOCK_ROWS = 128
_BLOCK_ENTRIES = 65536


class _Run:
    """The bookkeeping of one solve: the iteration cap and the loop's
    implementations (``for n, impls in run``), the per-iteration record and
    tolerance test, and the ``SolveResult``.  ``impls`` are those of the
    ``(obj, "prox"|"grad"|"apply"|"adjoint")`` pairs in ``calls``, checked
    (``_checked``) at n = 0 and bare from n = 1 on.

    The objective plays no part in the iteration, so the iterates whose value
    the stopping rule's cadence asks for are copied into a block and
    evaluated with one call of ``objective`` on the (k, n) block when it is
    full, and on what is left in ``result``.  ``elapsed_ns`` leaves out the
    time of those calls."""

    def __init__(self, stop: StoppingRule | None, objective, calls=()):
        self.stop = stop or StoppingRule()
        self._first = tuple(_checked(obj, method, calls) for obj, method in calls)
        self._impls = tuple(getattr(obj, method + "_impl") for obj, method in calls)
        self.converged = False
        self._objective = objective
        self._changes = []
        self._elapsed = []
        self._values = []  # objective of the evaluated iterates, in order
        self._block = None
        self._held = 0
        self._t0 = time.perf_counter_ns()
        self._eval_ns = 0

    def __iter__(self):
        yield 0, self._first
        for n in range(1, self.stop.max_iter):
            yield n, self._impls

    def _due(self, n: int) -> bool:
        """Whether iteration n's objective is evaluated (every iteration up to
        ``objective_dense_until``, then every ``objective_stride``-th)."""
        return n <= self.stop.objective_dense_until or n % self.stop.objective_stride == 0

    def done(self, x: Array, x_prev: Array | None, gap: float = 0.0) -> bool:
        """Record iterate ``x`` and its change ||x - x_prev|| (||x|| when
        there is no previous iterate); true once max(change, gap) /
        max(1, ||x_prev||) is within the tolerance, which it never is without
        a previous iterate.  ``gap`` is the loop's fixed-point gap, if any.

        This is the loop's one check: a non-finite iterate raises
        ``InvalidInputError``.  Its entries are tested only when the change
        is not finite, which a non-finite iterate always makes it, so a
        finite run pays one float test per iteration."""
        self._elapsed.append(time.perf_counter_ns() - self._t0 - self._eval_ns)
        change = norm(x) if x_prev is None else norm(x - x_prev)
        if not math.isfinite(change):  # a non-finite iterate has a non-finite change
            as_vector(x, name="iterate")
        self._changes.append(change)
        if self._due(len(self._changes)):
            if self._block is None:
                self._block = np.empty((max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // x.size)), x.size))
            self._block[self._held] = x
            self._held += 1
            if self._held == len(self._block):
                self._flush()
        self.converged = x_prev is not None and _rel(max(change, gap), norm(x_prev)) <= self.stop.tol
        return self.converged

    def _flush(self) -> None:
        if self._held:
            t = time.perf_counter_ns()
            values = np.asarray(self._objective(self._block[: self._held]), dtype=float)
            self._values += values.reshape(self._held).tolist()
            self._held = 0
            self._eval_ns += time.perf_counter_ns() - t

    def result(self, x: Array, aux: dict | None = None) -> SolveResult:
        """The result, with the objective carried over between evaluations;
        ``x`` and every array in ``aux`` must be finite."""
        for name, v in (("iterate", x), *(aux or {}).items()):
            if isinstance(v, np.ndarray):
                as_vector(v, name=name)
        self._flush()
        count = len(self._changes)
        objective = self._objective_column(count)
        records = tuple(map(IterationRecord, range(1, count + 1), objective, self._changes, self._elapsed))
        return SolveResult(
            final_x=np.array(x, dtype=float, copy=True),
            converged=self.converged,
            iterations=count,
            records=records,
            aux=aux or {},
        )

    def _objective_column(self, count: int) -> list:
        """The objective of iterations 1..count: the value of the last due
        iteration at or before each (``inf`` before the first).  Iterations
        1..dense are all due; after them, each multiple of the stride is due
        and its value is carried until the next one."""
        dense, stride = min(self.stop.objective_dense_until, count), self.stop.objective_stride
        column = self._values[:dense]
        first = (dense // stride + 1) * stride  # the first due iteration after the dense ones
        column += [column[-1] if column else math.inf] * (min(first, count + 1) - dense - 1)
        column += chain.from_iterable(map(repeat, self._values[dense:], repeat(stride)))
        del column[count:]  # the last value was repeated past the final iteration
        return column


def _checked(obj, method: str, calls):
    """``obj``'s implementation of ``method`` (``prox``, ``grad``, ``apply``
    or ``adjoint``) as a loop calls it on iteration 0.  The vector it is
    given (its last argument) must have the method's input dimension, which
    catches dimensions that disagree before the call; the message also
    states the input dimensions of the loop's other ``calls``, since the odd
    one out may be the function that fixed the loop's space.  Later
    iterations call the implementation itself and use its output as it is,
    so that must be a finite float64 vector of the method's output dimension
    (where ``as_vector`` would convert a list or another dtype)."""
    impl = getattr(obj, method + "_impl")
    dim_in, dim = _dims(obj, method)
    name = f"{obj.name}.{method}_impl"

    def first(*args):
        if args[-1].shape != (dim_in,):
            others = ", ".join(
                f"{o.name}.{m}_impl {_dims(o, m)[0]}" for o, m in calls if o is not obj or m != method
            )
            raise InvalidInputError(
                f"{name} takes a vector of dimension {dim_in}, got {args[-1].size}"
                + (f" (the loop's other implementations take: {others})" if others else "")
            )
        out = impl(*args)
        if type(out) is not np.ndarray or out.dtype != np.float64 or out.shape != (dim,):
            got = f"{out.dtype} array of shape {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
            raise InvalidInputError(f"{name} must return a float64 vector of dimension {dim}, got {got}")
        return as_vector(out, name=f"{name} output")

    return first


def _dims(obj, method: str) -> tuple:
    """The (input, output) dimensions of ``obj``'s ``method``."""
    if method == "apply":
        return obj.cols, obj.rows
    if method == "adjoint":
        return obj.rows, obj.cols
    return obj.dim, obj.dim


def _rel(delta: float, xnorm: float) -> float:
    return delta / max(1.0, xnorm)


def _check_range(name: str, value, lo: float, hi: float) -> float:
    """``value`` as a float in [lo, hi]: a malformed value is an
    ``InvalidParameterError`` (``as_real``), one outside the interval an
    ``InvalidScheduleError``."""
    value = as_real(value, name)
    if not lo <= value <= hi:
        raise InvalidScheduleError(f"{name}={value} outside the admissible interval [{lo}, {hi}]")
    return value


def _sequence(name: str, spec, lo: float, hi: float):
    """The reader n -> value of a schedule entry in [lo, hi].

    A constant or a finite sequence (a list, tuple or array, held at its last
    value) is checked in full here, so reading it is a list lookup; a
    callable is probed at n = 0 here and checked at every emission.
    """
    if callable(spec):
        _check_range(name, spec(0), lo, hi)
        return lambda n: _check_range(name, spec(n), lo, hi)
    sequence = isinstance(spec, (list, tuple)) or isinstance(spec, np.ndarray) and spec.ndim > 0
    values = [_check_range(name, v, lo, hi) for v in (spec if sequence else [spec])]
    if not values:
        raise InvalidScheduleError("empty schedule sequence")
    last = len(values) - 1
    return lambda n: values[min(n, last)]


def _resolve_schedule(kind: str, schedule: Schedule | None, beta: float | None = None):
    """Defaults and admissible intervals of a schedule, checked before iterating.

    ``kind`` is one of
      * ``"fb"``: forward-backward type, ``beta`` the Lipschitz constant or
        ||L||^2; eps in ]0, min(1, 1/beta)[ (default min(0.05/beta, 0.5)),
        gamma in [eps, 2/beta - eps] (default 1.9/beta), lambda in [eps, 1];
      * ``"const"``: constant step gamma = 1/beta; eps in ]0, 3/4[,
        lambda in [eps, 3/2 - eps];
      * ``"relaxed"``: eps in ]0, 1[, lambda in [eps, 2 - eps].
    The default eps of the last two is 0.05 and the default lambda is 1; they
    reject a schedule gamma.  Returns the readers n -> gamma_n (None for
    ``"relaxed"``, whose step is an argument) and n -> lambda_n.
    """
    sched = schedule or Schedule()
    if kind == "fb":
        eps_default, eps_hi = min(0.05 / beta, 0.5), min(1.0, 1.0 / beta)
    else:
        eps_default, eps_hi = 0.05, (0.75 if kind == "const" else 1)
    eps = as_real(sched.epsilon, "epsilon") if sched.epsilon is not None else eps_default
    if not 0.0 < eps < eps_hi:
        raise InvalidScheduleError(f"epsilon={eps} outside the admissible interval ]0, {eps_hi}[")
    gamma = None
    if kind == "fb":
        gamma = _sequence("gamma", sched.gamma if sched.gamma is not None else 1.9 / beta, eps, 2.0 / beta - eps)
    elif sched.gamma is not None:
        raise InvalidScheduleError("schedule gamma is not read here: the step is 1/beta or the gamma= argument")
    elif kind == "const":
        step = 1.0 / beta
        gamma = lambda n: step
    lam_hi = 1.0 if kind == "fb" else (1.5 - eps if kind == "const" else 2.0 - eps)
    return gamma, _sequence("lambda", sched.lam if sched.lam is not None else 1.0, eps, lam_hi)


def _branches(f_list, weights, solver: str):
    """The branch functions as a list, the first one's dimension, and their
    weights, each in ]0, 1] and summing to 1.  A branch of another dimension
    fails its prox's check at iteration 0."""
    f_list = list(f_list)
    if not f_list:
        raise InvalidInputError(f"{solver} needs at least one function")
    w = as_vector(weights, len(f_list))
    if np.any(w <= 0.0) or np.any(w > 1.0):
        raise InvalidParameterError("weights must lie in ]0, 1]")
    if abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise InvalidParameterError(f"weights must sum to 1, got {float(np.sum(w))}")
    return f_list, f_list[0].dim, w


def pocs(sets, x0=None, stop: StoppingRule | None = None) -> SolveResult:
    """Cyclic projections x_{n+1} = P_{C_1} ... P_{C_m} x_n.

    Converged means the iterate change fell below the tolerance *and* the
    iterate lies in every set (within the membership tolerance); a fixed point
    of the composition outside the intersection, as happens for disjoint
    sets, therefore reports converged=False.
    """
    sets = list(sets)
    if not sets:
        raise InvalidInputError("pocs needs at least one set")
    x = np.zeros(sets[0].dim) if x0 is None else as_vector(x0, sets[0].dim)
    run = _Run(stop, lambda v: 0.5 * sum(pow2(C.distance(v)) for C in sets))
    for _ in run:
        x_prev = x
        for C in reversed(sets):
            x = C.project(x)
        if run.done(x, x_prev):
            break
    run.converged = run.converged and all(C.contains(x) for C in sets)
    return run.result(x)


def _forward_backward(f1: ProxFn, f2: SmoothFn, gamma_at, lam_at, x0, stop) -> SolveResult:
    """The forward-backward loop, with the readers n -> gamma_n and n -> lambda_n."""
    x = np.zeros(f1.dim) if x0 is None else as_vector(x0, f1.dim)
    run = _Run(stop, lambda v: f1.eval(v) + f2.eval(v), [(f1, "prox"), (f2, "grad")])
    for n, (prox, grad) in run:
        gamma = gamma_at(n)
        lam = lam_at(n)
        p = prox(gamma, x - gamma * grad(x))
        x_prev, x = x, x + lam * (p - x)
        if run.done(x, x_prev, norm(p - x_prev)):
            break
    return run.result(x, {"gamma": gamma})


def forward_backward(
    f1: ProxFn,
    f2: SmoothFn,
    schedule: Schedule | None = None,
    x0=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Forward-backward splitting for min f1 + f2 with f2 smooth.

    Iterates x_{n+1} = x_n + lambda_n (prox_{gamma_n f1}(x_n - gamma_n grad
    f2(x_n)) - x_n) with gamma_n in [eps, 2/beta - eps] and lambda_n in
    [eps, 1].  Requires f1 + f2 coercive (documented, not checked).
    """
    return _forward_backward(f1, f2, *_resolve_schedule("fb", schedule, f2.lipschitz), x0, stop)


def forward_backward_const(
    f1: ProxFn,
    f2: SmoothFn,
    schedule: Schedule | None = None,
    x0=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Constant-step forward-backward, the preset of ``forward_backward``
    with gamma = 1/beta fixed and lambda_n in [eps, 3/2 - eps], eps in
    ]0, 3/4[."""
    return _forward_backward(f1, f2, *_resolve_schedule("const", schedule, f2.lipschitz), x0, stop)


def fista(
    f1: ProxFn,
    f2: SmoothFn,
    x0=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Accelerated proximal gradient with the t_{n+1} = (1+sqrt(4 t_n^2+1))/2
    momentum sequence started at t_0 = 1, z_0 = x_0.

    The objective along the iterates satisfies
    f(x_n) <= f(x*) + 2*beta*||x_0 - x*||^2 / (n+1)^2 for n >= 1.
    """
    gamma = 1.0 / f2.lipschitz
    x = np.zeros(f1.dim) if x0 is None else as_vector(x0, f1.dim)
    z = x.copy()
    t = 1.0
    run = _Run(stop, lambda v: f1.eval(v) + f2.eval(v), [(f1, "prox"), (f2, "grad")])
    for _, (prox, grad) in run:
        x_prev, x = x, prox(gamma, z - gamma * grad(z))
        t_prev, t = t, 0.5 * (1.0 + math.sqrt(4.0 * t * t + 1.0))
        z = x_prev + (1.0 + (t_prev - 1.0) / t) * (x - x_prev)
        # momentum makes the iterate change an unreliable optimality proxy;
        # a passing test is confirmed with the prox-gradient fixed-point gap
        run.converged = run.done(x, x_prev) and _rel(fb_fixed_point_residual(f1, f2, gamma, x), norm(x)) <= run.stop.tol
        if run.converged:
            break
    return run.result(x, {"gamma": gamma})


def douglas_rachford(
    f1: ProxFn,
    f2: ProxFn,
    gamma: float = 1.0,
    schedule: Schedule | None = None,
    y0=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Douglas-Rachford splitting for min f1 + f2 (no smoothness needed).

    x_n = prox_{gamma f2}(y_n);
    y_{n+1} = y_n + lambda_n (prox_{gamma f1}(2 x_n - y_n) - x_n),
    lambda_n in [eps, 2 - eps].  Solutions satisfy the two-level condition
    x = prox_{gamma f2} y with prox_{gamma f1}(2x - y) = x; convergence of
    (x_n) assumes ri(dom f1) meets ri(dom f2) and the sum is coercive
    (documented, not checked).
    """
    gamma = as_real(gamma, "gamma", above=0.0)
    _, lam_at = _resolve_schedule("relaxed", schedule)

    y = np.zeros(f1.dim) if y0 is None else as_vector(y0, f1.dim)
    run = _Run(stop, lambda v: f1.eval(v) + f2.eval(v), [(f1, "prox"), (f2, "prox")])
    x = y
    for n, (prox1, prox2) in run:
        x_prev, x = x, prox2(gamma, y)
        lam = lam_at(n)
        p = prox1(gamma, 2.0 * x - y)
        if run.done(x, x_prev, norm(p - x) if n else math.inf):
            break  # on convergence y stays the driver of x; at the cap it is one step on
        y = y + lam * (p - x)
    return run.result(x, {"y": y, "gamma": gamma})


def dykstra_like(
    f: ProxFn,
    g: ProxFn,
    r,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Dykstra-like proximal algorithm: computes prox_{f+g}(r), the unique
    minimizer of f + g + ||. - r||^2/2, assuming dom f meets dom g
    (documented, not checked).  Starts at x_0 = r with zero correction terms.
    """
    r = as_vector(r, f.dim)
    x = r.copy()
    p = np.zeros(f.dim)
    q = np.zeros(f.dim)
    run = _Run(stop, lambda v: f.eval(v) + g.eval(v) + 0.5 * pow2(norm(v - r)), [(f, "prox"), (g, "prox")])
    for _, (prox_f, prox_g) in run:
        y = prox_g(1.0, x + p)
        p = x + p - y
        x_prev, x = x, prox_f(1.0, y + q)
        q = y + q - x
        if run.done(x, x_prev):
            break
    return run.result(x)


def dual_forward_backward(
    h: ProxFn,
    g: ProxFn,
    L: LinearMap,
    r,
    schedule: Schedule | None = None,
    u0=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Forward-backward on the dual of min h(x) + g(Lx) + ||x - r||^2/2.

    x_n = prox_h(r - L^T u_n);
    u_{n+1} = u_n + lambda_n (prox_{gamma_n g*}(u_n + gamma_n L x_n) - u_n)
    with gamma_n in [eps, 2/||L||^2 - eps], lambda_n in [eps, 1].  The prox of
    g* comes from the Moreau decomposition.  Requires ri(dom g) to meet
    ri L(dom h) (documented, not checked).  ||L|| comes from
    ``operator_norm``: a Lanczos iteration on L^T L, one ``apply`` and one
    ``adjoint`` per step (n steps for ``first_difference(n)`` up to
    n = 500), whose Ritz value is a lower bound up to rounding and
    within a few ulp of ||L|| once converged, so the step range is that of
    the true norm.  It is computed once per operator: repeated solves on one
    ``L`` read it back instead of rerunning the iteration.
    """
    if h.dim != L.cols:
        raise InvalidInputError(f"{h.name} has dimension {h.dim}, expected {L.cols}, the columns of {L.name}")
    r = as_vector(r, h.dim)
    gamma_at, lam_at = _resolve_schedule("fb", schedule, _norm_squared(operator_norm(L), "dual forward-backward"))

    gstar = conjugate(g)
    u = np.zeros(L.rows) if u0 is None else as_vector(u0, L.rows)
    calls = [(h, "prox"), (gstar, "prox"), (L, "apply"), (L, "adjoint")]
    run = _Run(stop, lambda v: h.eval(v) + g.eval(L.apply(v)) + 0.5 * pow2(norm(v - r)), calls)
    x = r
    for n, (prox_h, prox_gstar, apply, adjoint) in run:
        x_prev, x = x, prox_h(1.0, r - adjoint(u))
        gamma = gamma_at(n)
        lam = lam_at(n)
        u_prev, u = u, u + lam * (prox_gstar(gamma, u + gamma * apply(x)) - u)
        # a passing primal test is confirmed with the dual change
        run.converged = run.done(x, x_prev, 0.0 if n else math.inf) and _rel(norm(u - u_prev), norm(u)) <= run.stop.tol
        if run.converged:
            break
    return run.result(x, {"u": u})


@dataclass(frozen=True)
class QuadraticTerm:
    """(weight/2)*||x - center||^2: the function family supported in the
    x-step of prox_l and admm."""

    weight: float
    center: Array

    def __post_init__(self):
        object.__setattr__(self, "weight", as_real(self.weight, "weight", above=0.0))
        object.__setattr__(self, "center", as_vector(self.center))

    def eval(self, x):
        """The value at one vector, or the (k,) values of a (k, n) stack."""
        return 0.5 * self.weight * pow2(norm(as_points(x, self.center.size) - self.center))


def _x_step(f, L: LinearMap, gamma: float):
    """rhs |-> x solving M x = rhs + w c, M = w I + L^T L, for
    w = gamma * f.weight (0 for f = None) and c = f.center.  The caller
    takes rhs = L^T v with L's adjoint; ``core._gram_solver`` solves M at
    a = w: as (w + nu) I for a square L with a ``tight_frame_nu``, else by
    L's memoized Gram factorization."""
    if f is not None and not isinstance(f, QuadraticTerm):
        raise UnsupportedFunctionError("the x-step supports only f = None (zero) or a QuadraticTerm")
    if f is not None and f.center.size != L.cols:
        raise InvalidInputError(f"the QuadraticTerm center has dimension {f.center.size}, expected {L.cols}")
    w = gamma * f.weight if f is not None else 0.0
    solve = _gram_solver([L], w, "the x-step system is singular (L^T L not invertible and no quadratic term)")
    wc = w * f.center if f is not None else 0.0
    return lambda rhs: solve(rhs + wc)


def prox_l(f, L: LinearMap, v, gamma: float = 1.0) -> Array:
    """Minimizer of gamma*f(x) + ||L x - v||^2 / 2 for supported f.

    f is either None (the zero function, giving the least-squares solution)
    or a QuadraticTerm.  ``L.adjoint`` checks v and gives L^T v; the solve
    (``_x_step``, see ``admm``) errors on singular systems.
    """
    gamma = as_real(gamma, "gamma", above=0.0)
    rhs = L.adjoint(v)
    return _x_step(f, L, gamma)(rhs)


def admm(
    f,
    L: LinearMap,
    g: ProxFn,
    gamma: float = 1.0,
    y0=None,
    z0=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Alternating-direction method of multipliers for min f(x) + g(Lx).

    x_n minimizes gamma*f + ||L . - (y_n - z_n)||^2/2 (exact SPD solve, so f
    is restricted to None/QuadraticTerm); then y_{n+1} = prox_{gamma g}(L x_n
    + z_n) and z updates by the residual: ``sdmm``'s loop with one branch.
    The x-step matrix M = gamma*weight*I + L^T L is solved by ``_x_step``,
    whose factorization checks on entry that M is definite.  Requires L^T L
    invertible when f is None, and ri(dom g) meeting ri L(dom f) (documented,
    not checked).
    """
    gamma = as_real(gamma, "gamma", above=0.0)
    x_step = _x_step(f, L, gamma)
    y = np.zeros(L.rows) if y0 is None else as_vector(y0, L.rows)
    z = np.zeros(L.rows) if z0 is None else as_vector(z0, L.rows)
    objective = lambda v: (f.eval(v) if f is not None else 0.0) + g.eval(L.apply(v))
    return _multipliers([g], [L], gamma, x_step, objective, [y], [z], stop)


def ppxa(
    f_list,
    weights,
    gamma: float = 1.0,
    schedule: Schedule | None = None,
    y0_list=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Parallel proximal algorithm for min sum_i f_i.

    Each branch applies p_{i,n} = prox_{gamma f_i / omega_i}(y_{i,n}); the
    weighted average p_n drives both the branch updates and the monitored
    iterate x_{n+1} = x_n + lambda_n (p_n - x_n), lambda_n in [eps, 2 - eps].
    The branch states are the rows of one m x n array Y.  Each iteration
    copies the branch proxes, called in ascending order, into the rows of
    one m x n array P allocated per solve, takes p_n as one product w @ P,
    and then turns P into the branch updates in place.  Requires the
    relative interiors of the domains to intersect (documented, not checked).
    """
    f_list, dim, w = _branches(f_list, weights, "ppxa")
    gamma = as_real(gamma, "gamma", above=0.0)
    _, lam_at = _resolve_schedule("relaxed", schedule)

    Y = np.zeros((len(f_list), dim)) if y0_list is None else np.array([as_vector(y, dim) for y in y0_list])
    if len(Y) != len(f_list):
        raise InvalidInputError("one starting point per function is required")
    x = w @ Y
    P = np.empty_like(Y)

    scales = [as_real(gamma / wi, f"gamma / weights[{i}]") for i, wi in enumerate(w.tolist())]
    run = _Run(stop, lambda v: np.sum([f.eval(v) for f in f_list], axis=0), [(f, "prox") for f in f_list])
    for n, proxes in run:
        for i, (prox, c, yi) in enumerate(zip(proxes, scales, Y)):
            P[i] = prox(c, yi)  # a copy: a prox may return its argument, a row of Y
        p = w @ P
        lam = lam_at(n)
        np.subtract(2.0 * p - x, P, out=P)
        P *= lam
        Y += P
        x_prev, x = x, x + lam * (p - x)
        if run.done(x, x_prev):
            break
    return run.result(x)


def parallel_dykstra(
    f_list,
    weights,
    r,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Parallel Dykstra-like algorithm for min sum_i omega_i f_i + ||.-r||^2/2.

    Starts at x_0 = r with branch states z_{i,0} = r, the rows of one m x n
    array Z.  Each iteration copies the branch proxes into the rows of one
    m x n array P allocated per solve; the next iterate is one product
    w @ P.  Requires the domains to intersect (documented, not checked).
    """
    f_list, dim, w = _branches(f_list, weights, "parallel_dykstra")
    r = as_vector(r, dim)
    x = r.copy()
    Z = np.tile(r, (len(f_list), 1))
    P = np.empty_like(Z)

    def objective(v: Array) -> Array:
        # each row's weighted sum is the dot product of w with its values
        return np.vecdot(np.column_stack([f.eval(v) for f in f_list]), w) + 0.5 * pow2(norm(v - r))

    run = _Run(stop, objective, [(f, "prox") for f in f_list])
    for _, proxes in run:
        for i, (prox, zi) in enumerate(zip(proxes, Z)):
            P[i] = prox(1.0, zi)  # a copy: a prox may return its argument, a row of Z
        x_prev, x = x, w @ P
        Z += x
        Z -= P
        if run.done(x, x_prev):
            break
    return run.result(x)


def sdmm(
    g_list,
    L_list,
    gamma: float = 1.0,
    y0s=None,
    z0s=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Simultaneous-direction method of multipliers for min sum_i g_i(L_i x).

    Each branch keeps its own y_i and z_i.  The x-step solves
    Q x = sum_i L_i^T (y_i - z_i), Q = sum_i L_i^T L_i, which must be
    invertible, by ``core._gram_solver`` at a = 0: nu_i I for each square L_i
    with a ``tight_frame_nu``, the memoized factorization of the one map left, or
    one factorization per solve of two or more stacked.  Each branch then
    applies prox_{gamma g_i} to L_i x + z_i, in ascending order, and z_i
    updates by the residual (``_multipliers``).
    """
    g_list, L_list = list(g_list), list(L_list)
    if not g_list or len(g_list) != len(L_list):
        raise InvalidInputError("sdmm needs matching nonempty function/operator lists")
    dim = L_list[0].cols
    if any(L.cols != dim for L in L_list):
        raise InvalidInputError("all operators must share the domain dimension")
    gamma = as_real(gamma, "gamma", above=0.0)

    solve = _gram_solver(L_list, 0.0, "Q = sum_i L_i^T L_i is singular")

    if any(v0s is not None and len(v0s) != len(L_list) for v0s in (y0s, z0s)):
        raise InvalidInputError("one starting pair per branch is required")
    ys, zs = (
        [np.zeros(L.rows) for L in L_list] if v0s is None else [as_vector(v, L.rows) for v, L in zip(v0s, L_list)]
        for v0s in (y0s, z0s)
    )

    objective = lambda v: np.sum([g.eval(L.apply(v)) for g, L in zip(g_list, L_list)], axis=0)
    return _multipliers(g_list, L_list, gamma, solve, objective, ys, zs, stop)


def _multipliers(g_list, L_list, gamma: float, x_step, objective, ys, zs, stop) -> SolveResult:
    """The loop of ``sdmm``, and of ``admm`` with one branch: x_n = x_step(sum_i
    L_i^T (y_i - z_i)), then in ascending order y_i = prox_{gamma g_i}(L_i x_n
    + z_i) and z_i += L_i x_n - y_i, with each L_i's ``apply_impl`` and ``adjoint_impl``."""
    m = len(L_list)
    calls = [(g, "prox") for g in g_list] + [(L, "apply") for L in L_list] + [(L, "adjoint") for L in L_list]
    run = _Run(stop, objective, calls)
    x = None
    for _, impls in run:
        proxes, applies, adjoints = impls[:m], impls[m : 2 * m], impls[2 * m :]
        x_prev, x = x, x_step(reduce(np.add, [adjoint(yi - zi) for adjoint, yi, zi in zip(adjoints, ys, zs)]))
        vs = [apply(x) + zi for apply, zi in zip(applies, zs)]
        ys = [prox(gamma, vi) for prox, vi in zip(proxes, vs)]
        zs = [vi - yi for vi, yi in zip(vs, ys)]
        if run.done(x, x_prev):
            break
    return run.result(x)


def fb_fixed_point_residual(f1: ProxFn, f2: SmoothFn, gamma: float, x) -> float:
    """||x - prox_{gamma f1}(x - gamma grad f2(x))||: zero exactly at solutions."""
    x = as_vector(x, f1.dim)
    return norm(x - f1.prox(gamma, x - gamma * f2.grad(x)))


def dr_two_level_residual(f1: ProxFn, f2: ProxFn, gamma: float, y) -> float:
    """||prox_{gamma f1}(2x - y) - x|| at x = prox_{gamma f2}(y)."""
    y = as_vector(y, f1.dim)
    x = f2.prox(gamma, y)
    return norm(f1.prox(gamma, 2.0 * x - y) - x)
