"""Splitting algorithms.

Every solver consumes function/operator objects plus an optional ``Schedule``
and ``StoppingRule`` and returns a ``SolveResult`` with a per-iteration trace
(objective, iterate-change residual, elapsed nanoseconds).

Stopping is based on the relative iterate change
||x_{n+1} - x_n|| / max(1, ||x_n||); solvers whose convergence theory rests on
a fixed-point identity (forward-backward family, Douglas-Rachford) also
require the corresponding relative fixed-point gap to fall below the same
tolerance, so the identity holds at termination up to a small multiple of the
tolerance.  Initial points default to the zero vector (or to the reference
point where the algorithm prescribes it).

Hypotheses that cannot be checked mechanically (coercivity of the sum,
relative-interior qualification conditions, nonempty domain intersections)
are documented with each solver; their violation surfaces as
``converged=False`` at the iteration cap.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .catalog import conjugate
from .core import (
    Array,
    InvalidInputError,
    InvalidParameterError,
    InvalidScheduleError,
    IterationRecord,
    LinearMap,
    PreconditionError,
    ProxFn,
    Schedule,
    SmoothFn,
    SolveResult,
    UnsupportedFunctionError,
    as_vector,
    norm,
    operator_norm,
    sequence_value,
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
    which the objective is re-evaluated (every iteration up to
    ``objective_dense_until``, then every ``objective_stride``-th, carrying
    the last computed value in between)."""

    tol: float = 1e-10
    max_iter: int = 100_000
    objective_dense_until: int = 1000
    objective_stride: int = 10

    def __post_init__(self):
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise InvalidParameterError(f"tol must be a number, got {self.tol!r}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise InvalidParameterError(f"tol must be > 0, got {self.tol}")
        for name, least in (("max_iter", 1), ("objective_dense_until", 0), ("objective_stride", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise InvalidParameterError(f"{name} must be >= {least}, got {value}")


class _Tracer:
    def __init__(self, stop: StoppingRule, objective):
        self._stop = stop
        self._objective = objective
        self._records = []
        self._t0 = time.perf_counter_ns()
        self._last = math.inf

    def add(self, iteration: int, x: Array, residual: float) -> None:
        dense = iteration <= self._stop.objective_dense_until
        if dense or iteration % self._stop.objective_stride == 0:
            self._last = float(self._objective(x))
        self._records.append(
            IterationRecord(iteration, self._last, float(residual), time.perf_counter_ns() - self._t0)
        )

    def result(self, x: Array, converged: bool, aux: dict | None = None) -> SolveResult:
        return SolveResult(
            final_x=np.array(x, dtype=float, copy=True),
            converged=converged,
            iterations=len(self._records),
            records=tuple(self._records),
            aux=aux or {},
        )


def _rel(delta: float, xnorm: float) -> float:
    return delta / max(1.0, xnorm)


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    if not (np.isfinite(value) and lo <= value <= hi):
        raise InvalidScheduleError(
            f"{name}={value} outside the admissible interval [{lo}, {hi}]"
        )
    return float(value)


def _validate_spec(name: str, spec, lo: float, hi: float) -> None:
    # constants and finite sequences are checked in full before iterating;
    # callables are probed at n=0 and re-checked at every emission
    if callable(spec):
        _check_range(name, sequence_value(spec, 0), lo, hi)
    elif np.isscalar(spec):
        _check_range(name, float(spec), lo, hi)
    else:
        for v in spec:
            _check_range(name, float(v), lo, hi)


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
    reject a schedule gamma.  Returns the (spec, lo, hi) of gamma (None unless
    ``"fb"``) and of lambda; the solver loop checks each emitted value once.
    """
    sched = schedule or Schedule()
    if kind == "fb":
        eps_default, eps_hi = min(0.05 / beta, 0.5), min(1.0, 1.0 / beta)
    else:
        eps_default, eps_hi = 0.05, (0.75 if kind == "const" else 1)
    eps = float(sched.epsilon) if sched.epsilon is not None else eps_default
    if not 0.0 < eps < eps_hi:
        raise InvalidScheduleError(f"epsilon={eps} outside the admissible interval ]0, {eps_hi}[")
    gamma = None
    if kind == "fb":
        gamma = (sched.gamma if sched.gamma is not None else 1.9 / beta, eps, 2.0 / beta - eps)
        _validate_spec("gamma", *gamma)
    elif sched.gamma is not None:
        raise InvalidScheduleError("schedule gamma is not read here: the step is 1/beta or the gamma= argument")
    lam_hi = 1.0 if kind == "fb" else (1.5 - eps if kind == "const" else 2.0 - eps)
    lam = (sched.lam if sched.lam is not None else 1.0, eps, lam_hi)
    _validate_spec("lambda", *lam)
    return gamma, lam


def _positive_gamma(gamma) -> float:
    gamma = float(gamma)
    if not (np.isfinite(gamma) and gamma > 0):
        raise InvalidParameterError(f"gamma must be > 0, got {gamma}")
    return gamma


def _branches(f_list, weights, solver: str):
    """The branch functions as a list, their shared dimension, and their
    weights, each in ]0, 1] and summing to 1."""
    f_list = list(f_list)
    if not f_list:
        raise InvalidInputError(f"{solver} needs at least one function")
    dim = f_list[0].dim
    if any(f.dim != dim for f in f_list):
        raise InvalidInputError("all functions must share one dimension")
    w = as_vector(weights, len(f_list))
    if np.any(w <= 0.0) or np.any(w > 1.0):
        raise InvalidParameterError("weights must lie in ]0, 1]")
    if abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise InvalidParameterError(f"weights must sum to 1, got {float(np.sum(w))}")
    return f_list, dim, w


def _weighted_sum(w: Array, vs, dim: int) -> Array:
    """sum_i w_i v_i, accumulated from zero in ascending branch order."""
    total = np.zeros(dim)
    for wi, vi in zip(w, vs):
        total = total + wi * vi
    return total


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
    stop = stop or StoppingRule()
    x = np.zeros(sets[0].dim) if x0 is None else as_vector(x0, sets[0].dim)

    def objective(v: Array) -> float:
        return 0.5 * sum(C.distance(v) ** 2 for C in sets)

    tracer = _Tracer(stop, objective)
    for n in range(stop.max_iter):
        v = x
        for C in reversed(sets):
            v = C.project(v)
        change = norm(v - x)
        tracer.add(n + 1, v, change)
        done = _rel(change, norm(x)) <= stop.tol
        x = v
        if done:
            feasible = all(C.contains(x) for C in sets)
            return tracer.result(x, feasible)
    return tracer.result(x, False)


def _forward_backward(f1: ProxFn, f2: SmoothFn, gamma_range, lam_range, x0, stop) -> SolveResult:
    """The forward-backward loop; ``gamma_range`` is None for the constant
    step 1/beta."""
    stop = stop or StoppingRule()
    gamma_spec, g_lo, g_hi = gamma_range or (None, None, None)
    lam_spec, lam_lo, lam_hi = lam_range
    gamma = 1.0 / f2.lipschitz
    x = np.zeros(f1.dim) if x0 is None else as_vector(x0, f1.dim)
    tracer = _Tracer(stop, lambda v: f1.eval(v) + f2.eval(v))
    for n in range(stop.max_iter):
        if gamma_range is not None:
            gamma = _check_range("gamma", sequence_value(gamma_spec, n), g_lo, g_hi)
        lam = _check_range("lambda", sequence_value(lam_spec, n), lam_lo, lam_hi)
        y = x - gamma * f2.grad(x)
        p = f1.prox(gamma, y)
        gap = norm(p - x)
        x_new = x + lam * (p - x)
        change = norm(x_new - x)
        tracer.add(n + 1, x_new, change)
        done = _rel(max(change, gap), norm(x)) <= stop.tol
        x = x_new
        if done:
            return tracer.result(x, True, aux={"gamma": gamma})
    return tracer.result(x, False, aux={"gamma": gamma})


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
    return _forward_backward(f1, f2, *_resolve_schedule("const", schedule), x0, stop)


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
    stop = stop or StoppingRule()
    beta = f2.lipschitz
    gamma = 1.0 / beta
    x = np.zeros(f1.dim) if x0 is None else as_vector(x0, f1.dim)
    z = x.copy()
    t = 1.0
    tracer = _Tracer(stop, lambda v: f1.eval(v) + f2.eval(v))
    for n in range(stop.max_iter):
        y = z - gamma * f2.grad(z)
        x_new = f1.prox(gamma, y)
        t_new = 0.5 * (1.0 + math.sqrt(4.0 * t * t + 1.0))
        lam = 1.0 + (t - 1.0) / t_new
        z = x + lam * (x_new - x)
        change = norm(x_new - x)
        tracer.add(n + 1, x_new, change)
        done = False
        if _rel(change, norm(x)) <= stop.tol:
            # momentum makes the iterate change an unreliable optimality
            # proxy; confirm with the prox-gradient fixed-point gap
            gap = norm(x_new - f1.prox(gamma, x_new - gamma * f2.grad(x_new)))
            done = _rel(gap, norm(x_new)) <= stop.tol
        x = x_new
        t = t_new
        if done:
            return tracer.result(x, True, aux={"gamma": gamma})
    return tracer.result(x, False, aux={"gamma": gamma})


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
    stop = stop or StoppingRule()
    gamma = _positive_gamma(gamma)
    _, (lam_spec, lam_lo, lam_hi) = _resolve_schedule("relaxed", schedule)

    y = np.zeros(f1.dim) if y0 is None else as_vector(y0, f1.dim)
    tracer = _Tracer(stop, lambda v: f1.eval(v) + f2.eval(v))
    x_prev = y
    for n in range(stop.max_iter):
        x = f2.prox(gamma, y)
        lam = _check_range("lambda", sequence_value(lam_spec, n), lam_lo, lam_hi)
        p = f1.prox(gamma, 2.0 * x - y)
        two_level = norm(p - x)
        change = norm(x - x_prev)
        tracer.add(n + 1, x, change)
        if n > 0 and _rel(max(change, two_level), norm(x_prev)) <= stop.tol:
            return tracer.result(x, True, aux={"y": y, "gamma": gamma})
        y = y + lam * (p - x)
        x_prev = x
    return tracer.result(x_prev, False, aux={"y": y, "gamma": gamma})


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
    stop = stop or StoppingRule()
    r = as_vector(r, f.dim)
    x = r.copy()
    p = np.zeros(f.dim)
    q = np.zeros(f.dim)
    tracer = _Tracer(
        stop, lambda v: f.eval(v) + g.eval(v) + 0.5 * norm(v - r) ** 2
    )
    for n in range(stop.max_iter):
        y = g.prox(1.0, x + p)
        p = x + p - y
        x_new = f.prox(1.0, y + q)
        q = y + q - x_new
        change = norm(x_new - x)
        tracer.add(n + 1, x_new, change)
        done = _rel(change, norm(x)) <= stop.tol
        x = x_new
        if done:
            return tracer.result(x, True)
    return tracer.result(x, False)


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
    ri L(dom h) (documented, not checked).
    """
    stop = stop or StoppingRule()
    r = as_vector(r, h.dim)
    norm_l = operator_norm(L)
    if norm_l == 0.0:
        raise InvalidParameterError("dual forward-backward needs a nonzero operator")
    (gamma_spec, g_lo, g_hi), (lam_spec, lam_lo, lam_hi) = _resolve_schedule("fb", schedule, norm_l**2)

    gstar = conjugate(g)
    u = np.zeros(L.rows) if u0 is None else as_vector(u0, L.rows)
    tracer = _Tracer(
        stop,
        lambda v: h.eval(v) + g.eval(L.apply(v)) + 0.5 * norm(v - r) ** 2,
    )
    x_prev = r
    for n in range(stop.max_iter):
        x = h.prox(1.0, r - L.adjoint(u))
        gamma = _check_range("gamma", sequence_value(gamma_spec, n), g_lo, g_hi)
        lam = _check_range("lambda", sequence_value(lam_spec, n), lam_lo, lam_hi)
        u_new = u + lam * (gstar.prox(gamma, u + gamma * L.apply(x)) - u)
        u_change = norm(u_new - u)
        change = norm(x - x_prev)
        tracer.add(n + 1, x, change)
        xnorm = norm(x_prev)
        x_prev = x
        u = u_new
        if n > 0 and max(_rel(change, xnorm), _rel(u_change, norm(u))) <= stop.tol:
            return tracer.result(x, True, aux={"u": u})
    return tracer.result(x_prev, False, aux={"u": u})


@dataclass(frozen=True)
class QuadraticTerm:
    """(weight/2)*||x - center||^2: the function family supported in the
    x-step of prox_l and admm."""

    weight: float
    center: Array

    def __post_init__(self):
        w = float(self.weight)
        if not (np.isfinite(w) and w > 0):
            raise InvalidParameterError(f"weight must be > 0, got {w}")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "center", as_vector(self.center))

    def eval(self, x) -> float:
        return 0.5 * self.weight * norm(as_vector(x) - self.center) ** 2


def _spd_inverse(M: Array, singular_message: str) -> Array:
    """M^{-1} for a symmetric positive definite M, computed once.

    A Cholesky factorization checks definiteness (PreconditionError with
    ``singular_message`` when it fails); one eigendecomposition
    M = V diag(s) V^T then gives M^{-1} = V diag(1/s) V^T, so every later
    solve with M is one matrix-vector product.
    """
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(singular_message) from exc
    s, V = np.linalg.eigh(M)
    return (V / s) @ V.T


def _quadratic_step(f, L: LinearMap, gamma: float):
    """A, M^{-1} and w for the x-step M x = A^T v + w c, M = w I + A^T A,
    w = gamma * f.weight (0 for f = None) and c = f.center."""
    if f is not None and not isinstance(f, QuadraticTerm):
        raise UnsupportedFunctionError(
            "the x-step supports only f = None (zero) or a QuadraticTerm"
        )
    A = L.to_dense()
    w = gamma * f.weight if f is not None else 0.0
    M_inv = _spd_inverse(
        w * np.eye(L.cols) + A.T @ A,
        "the x-step system is singular (L^T L not invertible and no quadratic term)",
    )
    return A, M_inv, w


def prox_l(f, L: LinearMap, v, gamma: float = 1.0) -> Array:
    """Minimizer of gamma*f(x) + ||L x - v||^2 / 2 for supported f.

    f is either None (the zero function, giving the least-squares solution)
    or a QuadraticTerm.  Each call factors the SPD x-step matrix once (see
    ``admm``) and errors on singular systems.
    """
    gamma = _positive_gamma(gamma)
    v = as_vector(v, L.rows)
    A, M_inv, w = _quadratic_step(f, L, gamma)
    rhs = A.T @ v + (w * f.center if f is not None else 0.0)
    return M_inv @ rhs


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
    + z_n) and z updates by the residual.  The x-step matrix
    M = gamma*weight*I + L^T L is fixed for the whole solve: on entry it is
    checked by Cholesky and inverted through one eigendecomposition, so
    every x-step is one matrix-vector product.  Requires L^T L invertible
    when f is None, and ri(dom g) meeting ri L(dom f) (documented, not
    checked).
    """
    stop = stop or StoppingRule()
    gamma = _positive_gamma(gamma)
    if g.dim != L.rows:
        raise InvalidInputError(f"g has dimension {g.dim}, expected {L.rows}")
    A, M_inv, w = _quadratic_step(f, L, gamma)
    y = np.zeros(L.rows) if y0 is None else as_vector(y0, L.rows)
    z = np.zeros(L.rows) if z0 is None else as_vector(z0, L.rows)

    def objective(v: Array) -> float:
        fv = f.eval(v) if f is not None else 0.0
        return fv + g.eval(A @ v)

    tracer = _Tracer(stop, objective)
    x_prev = None
    for n in range(stop.max_iter):
        rhs = A.T @ (y - z) + (w * f.center if f is not None else 0.0)
        x = M_inv @ rhs
        s = A @ x
        y = g.prox(gamma, s + z)
        z = z + s - y
        change = norm(x - x_prev) if x_prev is not None else math.inf
        tracer.add(n + 1, x, change if math.isfinite(change) else norm(x))
        done = x_prev is not None and _rel(change, norm(x_prev)) <= stop.tol
        x_prev = x
        if done:
            return tracer.result(x, True)
    return tracer.result(x_prev, False)


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
    Branch proxes are independent (safe to dispatch concurrently); the
    reductions run in ascending branch order for determinism.  Requires the
    relative interiors of the domains to intersect (documented, not checked).
    """
    f_list, dim, w = _branches(f_list, weights, "ppxa")
    stop = stop or StoppingRule()
    gamma = _positive_gamma(gamma)
    _, (lam_spec, lam_lo, lam_hi) = _resolve_schedule("relaxed", schedule)

    ys = (
        [np.zeros(dim) for _ in f_list]
        if y0_list is None
        else [as_vector(y, dim).copy() for y in y0_list]
    )
    if len(ys) != len(f_list):
        raise InvalidInputError("one starting point per function is required")
    x = _weighted_sum(w, ys, dim)

    tracer = _Tracer(stop, lambda v: float(sum(f.eval(v) for f in f_list)))
    for n in range(stop.max_iter):
        ps = [f.prox(gamma / wi, yi) for f, wi, yi in zip(f_list, w, ys)]
        p = _weighted_sum(w, ps, dim)
        lam = _check_range("lambda", sequence_value(lam_spec, n), lam_lo, lam_hi)
        for i in range(len(ys)):
            ys[i] = ys[i] + lam * (2.0 * p - x - ps[i])
        x_new = x + lam * (p - x)
        change = norm(x_new - x)
        tracer.add(n + 1, x_new, change)
        done = _rel(change, norm(x)) <= stop.tol
        x = x_new
        if done:
            return tracer.result(x, True)
    return tracer.result(x, False)


def parallel_dykstra(
    f_list,
    weights,
    r,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Parallel Dykstra-like algorithm for min sum_i omega_i f_i + ||.-r||^2/2.

    Starts at x_0 = r with branch states z_{i,0} = r; the weighted average of
    the branch proxes is the next iterate.  Requires the domains to intersect
    (documented, not checked).
    """
    f_list, dim, w = _branches(f_list, weights, "parallel_dykstra")
    stop = stop or StoppingRule()
    r = as_vector(r, dim)
    x = r.copy()
    zs = [r.copy() for _ in f_list]

    def objective(v: Array) -> float:
        return float(sum(wi * f.eval(v) for wi, f in zip(w, f_list))) + 0.5 * norm(v - r) ** 2

    tracer = _Tracer(stop, objective)
    for n in range(stop.max_iter):
        ps = [f.prox(1.0, zi) for f, zi in zip(f_list, zs)]
        x_new = _weighted_sum(w, ps, dim)
        for i in range(len(zs)):
            zs[i] = x_new + zs[i] - ps[i]
        change = norm(x_new - x)
        tracer.add(n + 1, x_new, change)
        done = _rel(change, norm(x)) <= stop.tol
        x = x_new
        if done:
            return tracer.result(x, True)
    return tracer.result(x, False)


def sdmm(
    g_list,
    L_list,
    gamma: float = 1.0,
    y0s=None,
    z0s=None,
    stop: StoppingRule | None = None,
) -> SolveResult:
    """Simultaneous-direction method of multipliers for min sum_i g_i(L_i x).

    Q = sum_i L_i^T L_i must be invertible.  On entry to the solve it is
    checked by Cholesky and inverted through one eigendecomposition, so each
    x-step, Q x = sum_i L_i^T (y_{i,n} - z_{i,n}), is one matrix-vector
    product.  Each branch then applies prox_{gamma g_i} and a multiplier
    update.  Branch updates run in ascending index order for determinism.
    """
    g_list = list(g_list)
    L_list = list(L_list)
    if not g_list or len(g_list) != len(L_list):
        raise InvalidInputError("sdmm needs matching nonempty function/operator lists")
    dim = L_list[0].cols
    if any(L.cols != dim for L in L_list):
        raise InvalidInputError("all operators must share the domain dimension")
    for g, L in zip(g_list, L_list):
        if g.dim != L.rows:
            raise InvalidInputError(f"{g.name} has dimension {g.dim}, expected {L.rows}")
    stop = stop or StoppingRule()
    gamma = _positive_gamma(gamma)

    mats = [L.to_dense() for L in L_list]
    Q = np.zeros((dim, dim))
    for A in mats:
        Q += A.T @ A
    Q_inv = _spd_inverse(Q, "Q = sum_i L_i^T L_i is singular")

    def starts(v0s) -> list:
        if v0s is None:
            return [np.zeros(L.rows) for L in L_list]
        return [as_vector(v, L.rows).copy() for v, L in zip(v0s, L_list)]

    ys, zs = starts(y0s), starts(z0s)
    if len(ys) != len(g_list) or len(zs) != len(g_list):
        raise InvalidInputError("one starting pair per branch is required")

    def objective(v: Array) -> float:
        return float(sum(g.eval(A @ v) for g, A in zip(g_list, mats)))

    tracer = _Tracer(stop, objective)
    x_prev = None
    for n in range(stop.max_iter):
        rhs = np.zeros(dim)
        for A, yi, zi in zip(mats, ys, zs):
            rhs += A.T @ (yi - zi)
        x = Q_inv @ rhs
        for i, (g, A) in enumerate(zip(g_list, mats)):
            s = A @ x
            ys[i] = g.prox(gamma, s + zs[i])
            zs[i] = zs[i] + s - ys[i]
        change = norm(x - x_prev) if x_prev is not None else math.inf
        tracer.add(n + 1, x, change if math.isfinite(change) else norm(x))
        done = x_prev is not None and _rel(change, norm(x_prev)) <= stop.tol
        x_prev = x
        if done:
            return tracer.result(x, True)
    return tracer.result(x_prev, False)


def fb_fixed_point_residual(f1: ProxFn, f2: SmoothFn, gamma: float, x) -> float:
    """||x - prox_{gamma f1}(x - gamma grad f2(x))||: zero exactly at solutions."""
    x = as_vector(x, f1.dim)
    return norm(x - f1.prox(gamma, x - gamma * f2.grad(x)))


def dr_two_level_residual(f1: ProxFn, f2: ProxFn, gamma: float, y) -> float:
    """||prox_{gamma f1}(2x - y) - x|| at x = prox_{gamma f2}(y)."""
    y = as_vector(y, f1.dim)
    x = f2.prox(gamma, y)
    return norm(f1.prox(gamma, 2.0 * x - y) - x)
