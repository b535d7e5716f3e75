"""Builders for the desk-scale worked examples.

Each builder returns a ``ProblemInstance`` holding the function/operator
objects and a pure validator mapping a ``SolveResult`` to named residual
diagnostics.  ``_COMPATIBLE_SOLVERS`` is the one table of the solvers that
fit each problem tag (``ProblemInstance.solver_tags`` and
``cli.COMPATIBLE_SOLVERS`` read it), and ``run_instance`` dispatches an
instance to one of them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog, sets, solvers
from .core import (
    Array,
    InvalidInputError,
    InvalidParameterError,
    InvalidScheduleError,
    LinearMap,
    ProxFn,
    Schedule,
    SmoothFn,
    SolveResult,
    _norm_squared,
    as_count,
    as_real,
    as_vector,
    matrix_map,
    norm,
    pow2,
    identity_map,
    operator_norm,
    subgradient_certificate,
)

__all__ = [
    "ProblemInstance",
    "least_squares_smooth",
    "set_distance_smooth",
    "first_difference",
    "build_constrained_least_squares",
    "build_lasso",
    "build_alternating_projections",
    "build_best_approximation",
    "build_denoise",
    "build_tv1d",
    "build_feasibility",
    "run_instance",
    "lasso_kkt_residual",
]


# problem tag -> the solvers that fit it, in a fixed order
_COMPATIBLE_SOLVERS = {
    "lasso": ("forward_backward", "forward_backward_const", "fista", "douglas_rachford", "ppxa", "sdmm"),
    "constrained_least_squares": ("forward_backward", "forward_backward_const", "fista"),
    "alternating_projections": ("forward_backward", "douglas_rachford"),
    "best_approximation": ("dykstra_like", "parallel_dykstra"),
    "denoise": ("dykstra_like", "parallel_dykstra"),
    "tv1d": ("dual_forward_backward", "ppxa"),
    "feasibility": ("pocs",),
}


@dataclass(frozen=True)
class ProblemInstance:
    """A bundle of problem components and a pure validator producing named
    residual diagnostics for a solve result."""

    tag: str
    dim: int
    components: dict
    validator: Callable[[SolveResult], dict]

    @property
    def solver_tags(self) -> tuple:
        """The solvers that fit this problem's tag."""
        return _COMPATIBLE_SOLVERS.get(self.tag, ())


def least_squares_smooth(L: LinearMap, y) -> SmoothFn:
    """(1/2)||L x - y||^2 with gradient L^T(Lx - y) and beta = ||L||^2.

    beta comes from ``operator_norm``: a Lanczos iteration on L^T L, one
    ``apply`` and one ``adjoint`` per step (32 steps for a Gaussian
    100 x 200 ``L``), whose Ritz value is a lower bound on ||L||^2 up to
    rounding and within a few ulp of it once converged.  It is computed once
    per operator, so another term on the same ``L`` reads it back.  The
    gradient calls ``L``'s implementations directly: ``operator_norm``'s
    first call on ``L`` passed both through ``apply`` and ``adjoint``, which
    check their outputs, and an operator is fixed once built."""
    y = as_vector(y, L.rows)
    beta = _norm_squared(operator_norm(L), "least-squares term")
    return SmoothFn(
        dim=L.cols,
        value=lambda x: 0.5 * pow2(norm(L.apply(x) - y)),
        grad_impl=lambda x: L.adjoint_impl(L.apply_impl(x) - y),
        lipschitz=beta,
        name="least_squares",
    )


def set_distance_smooth(C) -> SmoothFn:
    """(1/2) d_C^2 as a smooth term: gradient x - P_C x, Lipschitz constant 1."""
    return SmoothFn(
        dim=C.dim,
        value=lambda x: 0.5 * pow2(C.distance(x)),
        grad_impl=lambda x: x - C.project(x),
        lipschitz=1.0,
        name="half_sq_distance",
    )


def first_difference(n: int) -> LinearMap:
    """The (n-1) x n forward difference x |-> (x_{k+1} - x_k)_k, in O(n) on
    slices of the last axis; both it and its adjoint give the bytes of the
    dense products."""
    n = as_count(n, "n", 2)

    def adjoint(u):  # (-u_0, u_0 - u_1, ..., u_{n-3} - u_{n-2}, u_{n-2})
        out = np.empty(u.shape[:-1] + (n,))
        out[..., -1] = 0.0
        out[..., :-1] = -u
        out[..., 1:] += u
        return out

    return LinearMap(n - 1, n, lambda x: x[..., 1:] - x[..., :-1], adjoint, name="first_difference")


# ---------------------------------------------------------------------------
# oracles and residuals
# ---------------------------------------------------------------------------


def lasso_kkt_residual(A, y, weights, x, kink_tol: float = 1e-9) -> float:
    """Max coordinatewise distance of A^T(y - Ax) from the l1 subdifferential.

    Coordinates with |x_k| <= kink_tol are treated as zero, so correlations
    only need to fall inside [-w_k, w_k] there.
    """
    A = np.asarray(A, dtype=float)
    y = as_vector(y)
    w = as_vector(weights)
    x = as_vector(x)
    corr = A.T @ (y - A @ x)
    dist = np.where(
        x > kink_tol,
        np.abs(corr - w),
        np.where(x < -kink_tol, np.abs(corr + w), np.maximum(np.abs(corr) - w, 0.0)),
    )
    return float(np.max(dist, initial=0.0))


def _feasible_probes(sets_list, dim: int, count: int, seed: int) -> Array:
    """Approximate members of the intersection, one per row of a (count, dim)
    stack, for variational-inequality checks."""
    Z = np.random.default_rng(seed).standard_normal((count, dim)) * 2.0
    for _ in range(60):
        for C in sets_list:
            Z = C.project(Z)
    return Z


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_constrained_least_squares(L: LinearMap, y, C) -> ProblemInstance:
    """min (1/2)||L x - y||^2 over x in C (projected Landweber family)."""
    y = as_vector(y, L.rows, name="y")
    f2 = least_squares_smooth(L, y)
    f1 = sets.indicator(C)
    if C.dim != L.cols:
        raise InvalidInputError("constraint set dimension must match the operator domain")

    def validator(result: SolveResult) -> dict:
        x = result.final_x
        residual = float(np.linalg.norm(x - C.project(x - f2.grad(x))))
        return {"projected_gradient_residual": residual, "objective": f2.eval(x)}

    return ProblemInstance(
        tag="constrained_least_squares",
        dim=L.cols,
        components={"f1": f1, "f2": f2, "L": L, "y": y, "C": C},
        validator=validator,
    )


def build_lasso(A, y, weights) -> ProblemInstance:
    """min sum_k w_k |x_k| + (1/2)||A x - y||^2 in the canonical basis.

    Besides the forward-backward encoding (f1 = weighted l1, f2 smooth), the
    components carry a prox form of the quadratic for Douglas-Rachford, a
    three-way split for PPXA (with an inactive box bound), and the two-block
    SDMM encoding.
    """
    Lmap = matrix_map(A, name="A")
    A = Lmap.matrix
    y = as_vector(y, Lmap.rows, name="y")
    n = Lmap.cols
    w = as_vector(weights, name="weights")
    if w.size == 1:
        w = np.full(n, float(w[0]))
    if w.size != n or np.any(w <= 0):
        raise InvalidParameterError("lasso needs one positive weight per coordinate")
    f1 = catalog.weighted_l1(w)
    f2 = least_squares_smooth(Lmap, y)
    f2_prox = catalog.quadratic(Lmap, y, 1.0)
    box = sets.Box(np.full(n, -10.0), np.full(n, 10.0))

    def validator(result: SolveResult) -> dict:
        return {"kkt_residual": lasso_kkt_residual(A, y, w, result.final_x)}

    return ProblemInstance(
        tag="lasso",
        dim=n,
        components={
            "A": Lmap,
            "y": y,
            "weights": w,
            "f1": f1,
            "f2": f2,
            "f2_prox": f2_prox,
            "ppxa": {"f_list": [f2_prox, f1, sets.indicator(box)], "weights": np.full(3, 1.0 / 3.0)},
            "sdmm_g_list": [catalog.quadratic_deviation(y), f1],
            "sdmm_L_list": [Lmap, identity_map(n)],
        },
        validator=validator,
    )


def build_alternating_projections(C, D) -> ProblemInstance:
    """min (1/2) d_D^2(x) over x in C, via the Moreau envelope of the
    indicator of D (gradient x - P_D x, Lipschitz constant 1).  One of C, D
    should be bounded for a minimizer to exist (documented, not checked)."""
    if C.dim != D.dim:
        raise InvalidInputError("both sets must share one dimension")
    f1 = sets.indicator(C)
    f2 = set_distance_smooth(D)

    def validator(result: SolveResult) -> dict:
        x = result.final_x
        return {
            "fixed_point_residual": float(np.linalg.norm(x - C.project(D.project(x)))),
            "distance_C": C.distance(x),
        }

    return ProblemInstance(
        tag="alternating_projections",
        dim=C.dim,
        components={"f1": f1, "f2": f2, "f2_prox": catalog.squared_distance(sets.indicator(D)), "C": C, "D": D},
        validator=validator,
    )


def build_best_approximation(C, D, r) -> ProblemInstance:
    """Projection of r onto C ∩ D through the Dykstra-like algorithm."""
    if C.dim != D.dim:
        raise InvalidInputError("both sets must share one dimension")
    r = as_vector(r, C.dim, name="r")

    def validator(result: SolveResult) -> dict:
        x = result.final_x
        probes = _feasible_probes([C, D], C.dim, 64, seed=5)
        return {
            "distance_C": C.distance(x),
            "distance_D": D.distance(x),
            "vi_violation": float(np.max(np.vecdot(probes - x, r - x), initial=0.0)),
        }

    return ProblemInstance(
        tag="best_approximation",
        dim=C.dim,
        components={"f": sets.indicator(C), "g": sets.indicator(D), "C": C, "D": D, "r": r},
        validator=validator,
    )


def build_denoise(f: ProxFn, g: ProxFn, r) -> ProblemInstance:
    """min f(x) + g(x) + (1/2)||x - r||^2, i.e. prox_{f+g}(r)."""
    if f.dim != g.dim:
        raise InvalidInputError("f and g must share one dimension")
    r = as_vector(r, f.dim, name="r")

    def validator(result: SolveResult) -> dict:
        x = result.final_x
        combined = ProxFn(
            dim=f.dim,
            value=lambda v: f.eval(v) + g.eval(v),
            prox_impl=lambda gamma, v: v,
            name="f+g",
        )
        return {"prox_certificate": subgradient_certificate(combined, r, x, samples=128, radius=0.5, seed=3)}

    return ProblemInstance(
        tag="denoise",
        dim=f.dim,
        components={"f": f, "g": g, "r": r},
        validator=validator,
    )


def _pairwise_tv(n: int, omega: float, offset: int) -> ProxFn:
    """omega * sum of |x_{k+1} - x_k| over disjoint pairs starting at offset.
    It is separable in the orthonormal basis of pair means and pair gaps, so
    the prox keeps each pair's mean and soft-thresholds its gap to
    [-2 gamma omega, 2 gamma omega].  With a = x_k, b = x_{k+1} and
    c = clamp((b - a)/2, -gamma omega, gamma omega), that is the pair
    (a + c, b - c).  c takes four in-place passes over the pairs, and the
    new pairs are written into a copy of x, where an unpaired end coordinate
    passes through."""
    end = offset + 2 * ((n - offset) // 2)
    lo, hi = slice(offset, end, 2), slice(offset + 1, end, 2)

    def prox(gamma, x):
        t = gamma * omega
        a, b = x[lo], x[hi]
        c = b - a
        c *= 0.5
        np.maximum(c, -t, out=c)
        np.minimum(c, t, out=c)
        p = x.copy()
        np.add(a, c, out=p[lo])
        np.subtract(b, c, out=p[hi])
        return p

    value = lambda x: omega * np.sum(np.abs(x[..., hi] - x[..., lo]), axis=-1)
    return ProxFn(dim=n, value=value, prox_impl=prox, name="pairwise_tv")


def build_tv1d(r, omega: float) -> ProblemInstance:
    """min omega * sum_k |x_{k+1} - x_k| + (1/2)||x - r||^2 on a 1-D signal.

    Two O(n) encodings: (a) the dual forward-backward form h(x) + g(Lx) +
    ||x - r||^2/2 with h = 0, g = omega*||.||_1, L the first difference; and
    (b) a PPXA split over even/odd pairwise terms with closed-form pairwise
    shrinkage plus the quadratic deviation term.  The validator's dual u is
    the least-squares solution of D^T u = v = r - x, the partial sums
    cumsum(mean(v) - v)[:-1]; its stationarity is |sum v| / sqrt(n).
    """
    r = as_vector(r, name="r")
    n = r.size
    if n < 2:
        raise InvalidParameterError("tv1d needs signal length >= 2")
    omega = as_real(omega, "omega", above=0.0)
    dual = {
        "h": catalog.zero_fn(n),
        "g": catalog.weighted_l1(np.full(n - 1, omega)),
        "L": first_difference(n),
        "r": r,
    }
    ppxa_encoding = {
        "f_list": [_pairwise_tv(n, omega, 0), _pairwise_tv(n, omega, 1), catalog.quadratic_deviation(r)],
        "weights": np.full(3, 1.0 / 3.0),
    }

    def validator(result: SolveResult) -> dict:
        x = result.final_x
        v = r - x  # must equal D^T u with u in omega * dsubdiff of ||Dx||_1
        u = np.cumsum(np.mean(v) - v)[:-1]
        gaps = x[1:] - x[:-1]
        stationarity = float(abs(np.sum(v)) / np.sqrt(n))
        bound = float(max(np.max(np.abs(u)) - omega, 0.0))
        align = float(np.max(np.where(np.abs(gaps) > 1e-7, np.abs(u - omega * np.sign(gaps)), 0.0)))
        return {"stationarity": stationarity, "dual_bound": bound, "alignment": align}

    return ProblemInstance(
        tag="tv1d",
        dim=n,
        components={"r": r, "omega": omega, "dual": dual, "ppxa": ppxa_encoding},
        validator=validator,
    )


def build_feasibility(sets_list) -> ProblemInstance:
    """find x in the intersection of the given sets (POCS)."""
    sets_list = list(sets_list)
    if not sets_list:
        raise InvalidInputError("feasibility needs at least one set")
    dim = sets_list[0].dim
    if any(C.dim != dim for C in sets_list):
        raise InvalidInputError("all sets must share one dimension")

    def validator(result: SolveResult) -> dict:
        x = result.final_x
        return {"max_distance": max(C.distance(x) for C in sets_list)}

    return ProblemInstance(
        tag="feasibility",
        dim=dim,
        components={"sets": sets_list},
        validator=validator,
    )


def _parallel_dykstra_args(c, schedule):
    # the parallel objective is sum_i omega_i f_i + ||.-r||^2/2, so each
    # term is pre-divided by its weight to recover f + g + ||.-r||^2/2
    branches = [catalog.scaled(c["f"], 2.0), catalog.scaled(c["g"], 2.0)]
    return (branches, np.array([0.5, 0.5]), c["r"]), {}


# solver name -> (positional arguments, keyword arguments) drawn from an
# instance's components and the schedule
_SOLVER_ARGS = {
    "forward_backward": lambda c, s: ((c["f1"], c["f2"]), {"schedule": s}),
    "forward_backward_const": lambda c, s: ((c["f1"], c["f2"]), {"schedule": s}),
    "fista": lambda c, s: ((c["f1"], c["f2"]), {}),
    "douglas_rachford": lambda c, s: ((c["f1"], c["f2_prox"]), {"schedule": s}),
    "dykstra_like": lambda c, s: ((c["f"], c["g"], c["r"]), {}),
    "parallel_dykstra": _parallel_dykstra_args,
    "dual_forward_backward": lambda c, s: (tuple(c["dual"][k] for k in ("h", "g", "L", "r")), {"schedule": s}),
    "ppxa": lambda c, s: ((c["ppxa"]["f_list"], c["ppxa"]["weights"]), {"schedule": s}),
    "sdmm": lambda c, s: ((c["sdmm_g_list"], c["sdmm_L_list"]), {}),
    "pocs": lambda c, s: ((c["sets"],), {}),
}


def run_instance(
    instance: ProblemInstance,
    solver_tag: str,
    schedule: Schedule | None = None,
    stop: solvers.StoppingRule | None = None,
) -> SolveResult:
    """Dispatch an instance to a compatible solver, which must read every schedule field set."""
    if solver_tag not in instance.solver_tags:
        raise InvalidInputError(
            f"solver '{solver_tag}' is not applicable to '{instance.tag}'; "
            f"compatible solvers: {', '.join(instance.solver_tags)}"
        )
    args, kwargs = _SOLVER_ARGS[solver_tag](instance.components, schedule)
    if "schedule" not in kwargs and any(v is not None for v in vars(schedule or Schedule()).values()):
        raise InvalidScheduleError(f"solver '{solver_tag}' reads no schedule field; leave them null")
    # looked up on the module at call time, so that a rebinding of
    # ``solvers.<name>`` (as a tracer does) is honoured
    return getattr(solvers, solver_tag)(*args, stop=stop, **kwargs)
