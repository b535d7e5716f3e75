"""Core abstractions shared by the whole toolkit.

Vectors are plain 1-D float64 numpy arrays, validated to be finite.  Convex
functions are carried by small immutable wrappers: ``ProxFn`` exposes an
extended-real evaluation together with its proximity map, ``SmoothFn`` a
real-valued evaluation, gradient and Lipschitz constant.  ``LinearMap`` wraps
a linear operator through forward/adjoint callables.  Evaluation and
``LinearMap.apply`` also take a (k, dim) stack of points, one per row.
``Schedule``, ``IterationRecord`` and ``SolveResult`` are the solver plumbing.

The public methods (``prox``, ``grad``, ``apply``, ``adjoint``, ``eval``)
check their arguments and their implementation's output on every call.  The
solvers call ``prox_impl``, ``grad_impl``, ``apply_impl`` and
``adjoint_impl`` directly once they have checked their outputs on the first
iteration, so each should return a finite float64 vector of its output
dimension.

Everything here is immutable after construction and every operation is pure,
so all objects can be shared freely across threads.  The one piece of state,
a ``LinearMap``'s memo of its ``operator_norm`` results and of its Gram
factorization, caches values of pure functions of a fixed operator.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "InvalidInputError",
    "InvalidParameterError",
    "InvalidScheduleError",
    "PreconditionError",
    "UnsupportedFunctionError",
    "as_vector",
    "as_points",
    "as_real",
    "as_count",
    "norm",
    "pow2",
    "ProxFn",
    "SmoothFn",
    "LinearMap",
    "matrix_map",
    "identity_map",
    "Schedule",
    "IterationRecord",
    "SolveResult",
    "subgradient_certificate",
    "operator_norm",
    "check_adjoint",
    "firm_nonexpansiveness_violation",
    "gradient_check_error",
]


class InvalidInputError(ValueError):
    """A vector argument is malformed (wrong shape/dimension, NaN or inf)."""


class InvalidParameterError(ValueError):
    """A constructor parameter violates its documented range."""


class InvalidScheduleError(ValueError):
    """A step-size or relaxation value leaves its admissible interval."""


class PreconditionError(RuntimeError):
    """A structural precondition fails (rank, tight frame, invertibility)."""


class UnsupportedFunctionError(TypeError):
    """An operation received a function outside its supported family."""


_FLOAT64 = np.dtype(np.float64)
_NOT_REAL = (bool, np.bool_, complex, np.complexfloating, str, bytes)


def _real_array(x) -> Optional[Array]:
    """``x`` as a float array, or None if it holds a bool, a complex number or a
    string (which numpy would convert) or is ragged; a flat list of floats and
    ints converts as is, and an ndarray only if its dtype is integer or float."""
    if isinstance(x, np.ndarray) and x.dtype != object:
        return np.asarray(x, dtype=float) if x.dtype.kind in "iuf" else None
    plain = type(x) is list and {float, int}.issuperset(map(type, x))
    a = x if plain else np.asarray(x, dtype=object)
    if not plain and any(issubclass(t, _NOT_REAL) for t in set(map(type, a.flat))):
        return None
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None


def as_vector(x, dim: Optional[int] = None, name: str = "vector") -> Array:
    """Validate ``x`` as a finite 1-D float vector, optionally of length ``dim``.

    A plain 1-D float64 ndarray is returned as it is (``asarray`` would return
    that same object); anything else is converted, and one holding a bool, a
    complex number or a string raises ``InvalidInputError`` naming ``name``.
    Counting the finite entries is exact and cannot overflow.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1:
        v = x
    else:
        v = _real_array(x)
        if v is None:
            raise InvalidInputError(f"{name} entries must be real numbers")
        v = np.atleast_1d(v)
        if v.ndim != 1:
            raise InvalidInputError(f"expected a 1-D vector, got shape {v.shape}")
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise InvalidInputError(f"{name} entries must be finite")
    if dim is not None and v.size != dim:
        raise InvalidInputError(f"expected a vector of dimension {dim}, got {v.size}")
    return v


def _is_stack(x) -> bool:
    """Whether ``x`` is a 2-D stack of points (an ndarray's own ``ndim``
    costs a tenth of ``np.ndim``, and vectors take this test on every call).
    A ragged nesting, which ``np.ndim`` cannot measure, is not a stack, so
    ``as_vector`` rejects it."""
    if type(x) is np.ndarray:
        return x.ndim == 2
    try:
        return np.ndim(x) == 2
    except ValueError:
        return False


def as_points(x, dim: int) -> Array:
    """Validate ``x`` as one finite vector of length ``dim`` (``as_vector``)
    or as a (k, dim) stack of them, returned C-contiguous so that each row is
    summed as the vector itself would be."""
    if not _is_stack(x):
        return as_vector(x, dim)
    v = x if type(x) is np.ndarray and x.dtype is _FLOAT64 else _real_array(x)
    if v is None:
        raise InvalidInputError("vector entries must be real numbers")
    v = np.ascontiguousarray(v)
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise InvalidInputError("vector entries must be finite")
    if v.shape[1] != dim:
        raise InvalidInputError(f"expected vectors of dimension {dim}, got {v.shape[1]}")
    return v


def _each_row(fn, X: Array, shape: tuple = ()) -> Array:
    """``fn``, written for one vector, on ``X``: called once on a 1-D ``X``,
    and on each row of a (k, dim) stack, with the results stacked to shape
    (k, *shape)."""
    if X.ndim == 1:
        return fn(X)
    return np.array([fn(row) for row in X], dtype=float).reshape((len(X), *shape))


def _stacked_values(value, X: Array):
    """The (len(X),) values of one call of ``value`` on the stack ``X``, or
    None if the call fails (as ``float(A @ x)`` does) or gives another shape."""
    try:
        out = np.asarray(value(X), dtype=float)
    except (TypeError, ValueError, IndexError):
        return None
    return out if out.shape == (len(X),) else None


def _row_values(value, X: Array) -> Array:
    """The (k,) values of ``value`` on the stack ``X``, from one call on it.

    A value written for one point, which fails on the stack or gives it
    anything but k numbers, is called on each row instead.  One that indexes
    the first axis (``x[0]``) gives k numbers only when k equals the
    dimension, so then the stack is split: on its first k - 1 rows such a
    value gives dim != k - 1 numbers, or fails, and falls back to the rows.
    """
    k, dim = X.shape
    if k == dim > 1:
        head = _stacked_values(value, X[:-1])
        out = None if head is None else np.append(head, value(X[-1])).astype(float)
    else:
        out = _stacked_values(value, X)
    if out is None or out.shape != (k,):
        out = _each_row(value, X)
    return out


def as_real(value, name: str, above: Optional[float] = None, at_least: Optional[float] = None) -> float:
    """Validate ``value`` as a finite real number, optionally ``> above`` or
    ``>= at_least``, and return it as a float: the scalar counterpart of
    ``as_vector``.  A bool is not a number here; anything else raises
    ``InvalidParameterError`` naming the parameter and the value."""
    try:  # a float skips the ABC check, which costs more than the rest
        real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))
        v = float(value) if real else math.nan
    except OverflowError:  # an integer beyond the float range
        v = math.nan
    if math.isfinite(v) and (above is None or v > above) and (at_least is None or v >= at_least):
        return v
    rule = f" > {above:g}" if above is not None else ""
    rule += f" >= {at_least:g}" if at_least is not None else ""
    raise InvalidParameterError(f"{name} must be a finite number{rule}, got {value!r}")


def _matrix(A, name: str) -> Array:
    """``A`` as a finite 2-D float array with at least one row and one column,
    or ``InvalidParameterError`` naming ``name``."""
    M = _real_array(A)
    if M is None:
        raise InvalidParameterError(f"{name} entries must be real numbers")
    if M.ndim != 2:
        raise InvalidParameterError(f"{name}: expected a matrix, got shape {M.shape}")
    as_count(M.shape[0], f"{name} rows", 1)
    as_count(M.shape[1], f"{name} columns", 1)
    if not np.all(np.isfinite(M)):
        raise InvalidParameterError(f"{name} entries must be finite")
    return M


def as_count(value, name: str, at_least: int = 0) -> int:
    """``value`` as an int >= ``at_least``: the integer counterpart of ``as_real``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < at_least:
        raise InvalidParameterError(f"{name} must be >= {at_least}, got {value}")
    return int(value)


def norm(v: Array):
    """Euclidean norm of a 1-D float64 vector, equal bit for bit to
    ``float(np.linalg.norm(v))`` at a fraction of its call cost; of a 2-D
    stack, the array of its row norms, each equal to the row's own.

    Like numpy, it takes sqrt(v . v) on ``v.ravel(order="K")``, so a strided
    view is first copied to contiguous memory and summed in the same order.
    """
    if v.ndim == 2:
        v = np.ascontiguousarray(v)
        return np.sqrt(np.vecdot(v, v))
    if not v.flags.c_contiguous:
        v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def pow2(t):
    """t ** 2 as C's ``pow`` rounds it: for a float, as Python's ``**``, and
    for an array, elementwise.  numpy's array ``** 2`` is t * t instead,
    which differs from ``pow`` in the last bit about once in a thousand, so a
    value that squares a norm with ``pow2`` gives each row of a stack the
    bits that the row alone gets."""
    return np.float_power(t, 2)


def _eval(f, x):
    """``eval`` of ``ProxFn`` and ``SmoothFn``: ``f.value`` at one vector as a
    float, or the (k,) values of the rows of a (k, dim) stack."""
    if _is_stack(x):
        return _row_values(f.value, as_points(x, f.dim))
    return float(f.value(as_vector(x, f.dim)))


@dataclass(frozen=True)
class ProxFn:
    """A proper lower-semicontinuous convex function with an explicit prox.

    ``value(x)`` returns f(x) in ]-inf, +inf] and ``prox_impl(gamma, x)``
    returns the unique minimizer of gamma*f(y) + 0.5*||x - y||^2.  Indicator
    functions additionally carry the underlying set in ``convex_set``.
    ``eval`` of a (k, dim) stack returns the (k,) values of its rows from
    one call of ``value`` on it, so ``value`` should broadcast over the last
    axis; one written for a single point is called on each row instead.
    """

    dim: int
    value: Callable[[Array], float]
    prox_impl: Callable[[float, Array], Array]
    name: str = "f"
    convex_set: object = None

    eval = _eval

    def prox(self, gamma: float, x) -> Array:
        gamma = as_real(gamma, "prox scale", above=0.0)
        return as_vector(self.prox_impl(gamma, as_vector(x, self.dim)), self.dim)


@dataclass(frozen=True)
class SmoothFn:
    """A convex differentiable function with a ``lipschitz``-Lipschitz gradient."""

    dim: int
    value: Callable[[Array], float]
    grad_impl: Callable[[Array], Array]
    lipschitz: float
    name: str = "f"

    def __post_init__(self):
        object.__setattr__(self, "lipschitz", as_real(self.lipschitz, "lipschitz", above=0.0))

    eval = _eval

    def grad(self, x) -> Array:
        return as_vector(self.grad_impl(as_vector(x, self.dim)), self.dim)


@dataclass(frozen=True)
class LinearMap:
    """A linear operator R^cols -> R^rows with an explicit adjoint.

    When ``tight_frame_nu`` is set, the operator is declared to satisfy
    L L^T = nu I; this is probed on random vectors at construction.
    ``matrix``, when given, is the operator's own rows x cols matrix (set by
    ``matrix_map``).  The map keeps a read-only copy of it, which a missing
    ``apply_impl`` or ``adjoint_impl`` multiplies by, and ``to_dense`` copies
    that instead of probing columns.  A read-only float64 array that owns
    its memory is kept without a copy: nothing writes it unless its owner
    deliberately makes it writeable again.
    ``apply`` of a (k, cols) stack returns the (k, rows) images of its rows:
    one ``np.matvec`` with ``matrix`` when the map carries one, whose rows
    equal ``matrix @ x``, and otherwise one ``apply_impl`` call per row, so
    ``apply_impl`` only ever sees single vectors.

    An operator is fixed once built: the private ``_norms`` keeps, filled on
    first use, the ``operator_norm`` results by their arguments and the Gram
    factorization of ``_gram_solver``; ``dataclasses.replace`` gives a map
    with an empty memo.  So ``apply_impl`` and ``adjoint_impl`` must compute
    the same operator for the map's lifetime: one that reads an array the
    caller edits later gives stale norms and solves, without warning.
    """

    rows: int
    cols: int
    apply_impl: Optional[Callable[[Array], Array]] = None
    adjoint_impl: Optional[Callable[[Array], Array]] = None
    tight_frame_nu: Optional[float] = None
    name: str = "L"
    matrix: Optional[Array] = field(default=None, repr=False, compare=False)
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", as_count(self.rows, "rows", 1))
        object.__setattr__(self, "cols", as_count(self.cols, "cols", 1))
        if self.matrix is not None:
            M = _matrix(self.matrix, "matrix")
            if M is self.matrix and (M.flags.writeable or M.base is not None):
                M = M.copy(order="K")  # the caller's layout, so products keep their bytes
            M.flags.writeable = False
            if M.shape != (self.rows, self.cols):
                raise InvalidParameterError(f"matrix of shape {M.shape} does not match {self.rows} x {self.cols}")
            object.__setattr__(self, "matrix", M)
            if self.apply_impl is None:
                object.__setattr__(self, "apply_impl", lambda x: M @ x)
            if self.adjoint_impl is None:
                object.__setattr__(self, "adjoint_impl", lambda u: M.T @ u)
        if self.apply_impl is None or self.adjoint_impl is None:
            raise InvalidParameterError("a LinearMap needs apply_impl and adjoint_impl, or a matrix")
        if self.tight_frame_nu is not None:
            nu = as_real(self.tight_frame_nu, "tight_frame_nu", above=0.0)
            object.__setattr__(self, "tight_frame_nu", nu)
            rng = np.random.default_rng(7)
            for _ in range(3):
                u = rng.standard_normal(self.rows)
                gap = np.linalg.norm(self.apply(self.adjoint(u)) - nu * u)
                if gap > 1e-9 * max(1.0, np.linalg.norm(u)):
                    raise InvalidParameterError(
                        f"operator does not satisfy L L^T = {nu} I (probe gap {gap:.3e})"
                    )

    def apply(self, x) -> Array:
        if _is_stack(x):
            X = as_points(x, self.cols)
            if self.matrix is not None:
                return as_points(np.matvec(self.matrix, X), self.rows)
            return _each_row(lambda v: as_vector(self.apply_impl(v), self.rows), X, (self.rows,))
        return as_vector(self.apply_impl(as_vector(x, self.cols)), self.rows)

    def adjoint(self, u) -> Array:
        return as_vector(self.adjoint_impl(as_vector(u, self.rows)), self.cols)

    def to_dense(self) -> Array:
        """The operator as a fresh matrix: a copy of ``matrix`` when the map
        carries one, otherwise the transposed images of the identity's rows,
        one ``apply`` of that stack (desk-scale only)."""
        if self.matrix is not None:
            return self.matrix.copy()
        return np.ascontiguousarray(self.apply(np.eye(self.cols)).T)


def matrix_map(A, tight_frame_nu: Optional[float] = None, name: str = "L") -> LinearMap:
    """The operator x |-> A x.  The map holds a read-only copy of ``A`` and
    applies that copy, so a later edit of the caller's array changes neither
    the map nor its memoized norm and factorization."""
    A = _matrix(A, name)
    return LinearMap(A.shape[0], A.shape[1], tight_frame_nu=tight_frame_nu, name=name, matrix=A)


def identity_map(n: int) -> LinearMap:
    """The identity on R^n; it carries its (read-only) matrix, so ``to_dense``
    is a copy."""
    n = as_count(n, "n", 1)
    eye = np.eye(n)
    eye.flags.writeable = False  # kept without a copy
    return LinearMap(n, n, lambda x: x, lambda u: u, tight_frame_nu=1.0, name="I", matrix=eye)


def _gram_solver(L: LinearMap, a: float, c: float, singular: Optional[str] = None) -> Callable[[Array], Array]:
    """b |-> (a I + c A^T A)^{-1} b, for A the matrix of L, a >= 0 and c > 0.

    The eigenpairs (s, W) of L's smaller Gram matrix, s clipped at 0, are
    taken on first use and kept in ``L._norms["gram"]``: the one read of a
    map's matrix outside ``LinearMap`` (``L.matrix``, else ``to_dense``), and
    an ``InvalidParameterError`` if the Gram matrix overflows.  For rows >= cols,
    A^T A = W diag(s) W^T and x = W diag(1/(a + c s)) W^T b; for rows < cols,
    A A^T = U diag(s) U^T, W = A^T U, and the matrix-inversion lemma gives
    x = (b - c W diag(1/(a + c s)) W^T b) / a.  Its backward error grows as
    c max(s) / a, so past 64 one refinement step (A^T A = W W^T) follows.
    Given ``singular``: PreconditionError(singular) when the smallest
    eigenvalue (a when rows < cols) is at most cols * eps times the largest.
    """
    wide = L.rows < L.cols
    gram = L._norms.get("gram")
    if gram is None:  # threads racing here each compute and store the same pair
        A = L.matrix if L.matrix is not None else L.to_dense()
        with np.errstate(over="ignore", invalid="ignore"):
            G = A @ A.T if wide else A.T @ A
        if not np.isfinite(G).all():
            raise InvalidParameterError(f"the Gram matrix of {L.name} overflows: its factorization needs ||L||^2 < inf")
        s, W = np.linalg.eigh(G)
        gram = L._norms["gram"] = (np.maximum(s, 0.0), A.T @ W if wide else W)
    s, W = gram
    d = a + c * s
    if singular is not None and not (a if wide else d.min()) > L.cols * np.finfo(float).eps * d.max():
        raise PreconditionError(singular)
    if not wide:
        return lambda b: W @ ((W.T @ b) / d)
    lemma = lambda b: (b - c * (W @ ((W.T @ b) / d))) / a
    refined = lambda b: (x := lemma(b)) + lemma(b - a * x - c * (W @ (W.T @ x)))
    return lemma if c * s[-1] <= 64.0 * a else refined


ScalarSequence = Union[float, Sequence[float], Callable[[int], float]]


@dataclass(frozen=True)
class Schedule:
    """Step-size (gamma_n) and relaxation (lambda_n) sequences plus the margin
    epsilon pinning their admissible intervals.

    Each sequence may be a constant, a finite sequence (held at its last value
    afterwards), or a callable n -> value.  ``None`` falls back to the
    solver's documented default.  Solvers validate every emitted value against
    their algorithm-specific admissible interval before using it.
    """

    gamma: Optional[ScalarSequence] = None
    lam: Optional[ScalarSequence] = None
    epsilon: Optional[float] = None


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    residual: float
    elapsed_ns: int


@dataclass(frozen=True)
class SolveResult:
    """Final iterate plus per-iteration diagnostics.

    ``aux`` carries solver-specific extras (e.g. the Douglas-Rachford driver
    variable or the dual variable) needed to evaluate fixed-point residuals.
    """

    final_x: Array
    converged: bool
    iterations: int
    records: tuple
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.iterations != len(self.records):
            raise InvalidParameterError("iteration count must equal the number of records")


def subgradient_certificate(
    f: ProxFn,
    x,
    p,
    samples: int = 64,
    *,
    gamma: float = 1.0,
    radius: float = 1.0,
    ys=None,
    seed: int = 0,
) -> float:
    """Max violation of the subgradient inequality certifying p = prox(gamma, x).

    p is the prox of x iff u = (x - p)/gamma is a subgradient of f at p, i.e.
    f(p) + u^T (y - p) <= f(y) for all y.  Returns the largest value of
    f(p) + u^T (y - p) - f(y) over the sampled y (<= tol certifies optimality
    on the sample).  Purely diagnostic; never raises on a bad p.
    """
    x = as_vector(x, f.dim)
    p = as_vector(p, f.dim)
    fp = f.eval(p)
    if not np.isfinite(fp):
        return np.inf  # claimed prox lies outside dom f
    u = (x - p) / float(gamma)
    if ys is None:
        rng = np.random.default_rng(seed)
        scales = rng.uniform(0.0, radius, size=samples)
        dirs = rng.standard_normal((samples, f.dim))
        norms = np.maximum(np.linalg.norm(dirs, axis=1), 1e-300)
        Y = p + scales[:, None] * dirs / norms[:, None]
    else:
        Y = np.array([as_vector(y, f.dim) for y in ys]).reshape(-1, f.dim)
    gaps = fp + np.vecdot(Y - p, u) - f.eval(Y)  # all samples in one evaluation
    return float(np.max(gaps, initial=-np.inf))


def operator_norm(L: LinearMap, tol: float = 1e-8, max_iter: int = 500, seed: int = 0) -> float:
    """Spectral norm of L by the Lanczos iteration on L^T L.

    Each step is one ``L.apply`` and one ``L.adjoint`` of the current Lanczos
    vector (three-term recurrence, O(cols) memory, no reorthogonalization).
    The result is the square root of the largest Ritz value, the top
    eigenvalue of the k x k tridiagonal matrix the k steps build: a lower
    bound on ||L|| up to rounding, and within a few ulp of it once converged.
    The Ritz value is taken at growing checkpoints (k = 1, 5, 9, 13, 17, 21,
    26, 32, 40, ...: every max(4, k/4) steps), and the iteration stops when
    it moved by at most ``tol`` (relative) since the last one, or at once
    when the recurrence breaks down (its vectors span an invariant subspace,
    up to rounding, whose Ritz values are exact) or reaches ``L.cols`` steps
    (the Krylov space of L^T L is then used up).  The dense tridiagonal is
    never larger than 128 x 128: a longer one is solved by Sturm bisection.
    A Gaussian 100 x 200 operator takes 32 steps, ``first_difference(n)`` n
    steps for n <= 500.  The steps run on c^2 L^T L, with c a power of two
    from the first image ||L v_0|| (1 where it lies in [2^-128, 2^128]), so a
    map whose ||L||^2 or ||L^T L v||^2 underflows or overflows still gets its
    norm.

    Deterministic for a fixed seed of the start vector.  If the iteration does
    not reach the relative tolerance within ``max_iter`` steps, the current
    estimate is returned with a RuntimeWarning.  ``tol`` must be > 0,
    ``max_iter`` >= 1 and ``seed`` >= 0 (``InvalidParameterError``).

    The norm is computed once per operator and arguments: the result is kept
    on ``L`` and later calls return the same float, warning again when it did
    not converge.  A call that raises keeps nothing.
    """
    key = (as_real(tol, "tol", above=0.0), as_count(max_iter, "max_iter", 1), as_count(seed, "seed", 0))
    memo = L._norms.get(key)
    if memo is None:  # threads racing here each compute and store the same float
        memo = L._norms[key] = _lanczos(L, *key)
    value, converged = memo
    if not converged:
        warnings.warn(
            f"operator_norm Lanczos iteration did not converge in {key[1]} steps; "
            "returning current estimate",
            RuntimeWarning,
        )
    return value


def _norm_squared(norm_l: float, what: str) -> float:
    """``norm_l ** 2`` for the steps of ``what``, or an error naming ||L|| where it is 0 or inf."""
    with np.errstate(over="ignore"):
        beta = float(pow2(norm_l))  # a float's own ** raises OverflowError
    if not 0.0 < beta < math.inf:
        raise InvalidParameterError(f"{what} needs an operator with 0 < ||L||^2 < inf, got ||L|| = {norm_l!r}")
    return beta


# the largest tridiagonal handed to np.linalg.eigvalsh as a dense matrix;
# a longer one goes to the O(k)-memory bisection
_DENSE_RITZ = 128
# the recurrence breaks down (its vectors span an invariant subspace up to
# rounding) once beta_k is at most this share of T's largest row sum
_BREAKDOWN = 2.0**-40


def _lanczos(L: LinearMap, tol: float, max_iter: int, seed: int) -> tuple:
    """(estimate of ||L||, whether it met ``tol``) for ``operator_norm``."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(L.cols)
    if not v.any():
        v = np.ones(L.cols)
    v = v / np.linalg.norm(v)
    v_prev = np.zeros(L.cols)
    alpha, beta = [], []  # the diagonal and off-diagonal of T
    b = scale = 0.0
    theta = theta_prev = -1.0
    check = 1
    for k in range(1, max_iter + 1):
        # the public methods: they check the implementations, and a caller's
        # tracer counts the steps through them.  Neither output is written in
        # place, since an implementation may return its argument.
        image = L.apply(v)
        if k == 1:  # hypot, unlike image . image, neither overflows nor underflows
            n0 = math.hypot(*image)
            c = 1.0 if n0 == 0.0 or 2.0**-128 <= n0 <= 2.0**128 else math.ldexp(1.0, -math.frexp(n0)[1])
        w = L.adjoint(image) if c == 1.0 else c * L.adjoint(c * image)
        a = float(v @ w)
        w = w - a * v - b * v_prev
        b_prev, b = b, float(np.linalg.norm(w))
        scale = max(scale, abs(a) + b_prev + b)  # T's largest row sum so far
        alpha.append(a)
        beta.append(b)
        # the Krylov space of L^T L has at most L.cols dimensions: at k = cols
        # the Ritz values are its eigenvalues, up to rounding
        exact = b <= _BREAKDOWN * scale or k == L.cols
        if k == check or k == max_iter or exact:
            theta = _top_ritz_value(alpha, beta)
            if exact or abs(theta - theta_prev) <= tol * max(theta, 1e-300):
                return math.sqrt(max(theta, 0.0)) / c, True
            theta_prev = theta
            check = k + max(4, k // 4)
        v_prev, v = v, w / b
    return math.sqrt(max(theta, 0.0)) / c, False


def _top_ritz_value(alpha: list, beta: list) -> float:
    """The largest eigenvalue of the symmetric tridiagonal matrix with
    diagonal ``alpha`` and off-diagonal ``beta[:-1]``."""
    k = len(alpha)
    if k == 1:
        return alpha[0]
    if k <= _DENSE_RITZ:
        T = np.diag(alpha)
        i = np.arange(k - 1)
        T[i, i + 1] = T[i + 1, i] = beta[: k - 1]
        return float(np.linalg.eigvalsh(T)[-1])
    # bisection on the Sturm sequence: x is above every eigenvalue iff every
    # pivot of the LDL^T factorization of T - xI is negative
    off = beta[: k - 1]
    squares = [c * c for c in off]

    def above_all(x: float) -> bool:
        d = alpha[0] - x
        if d >= 0.0:
            return False
        for a, c2 in zip(alpha[1:], squares):
            d = a - x - c2 / d
            if d >= 0.0:
                return False
        return True

    radius = [p + q for p, q in zip([0.0, *off], [*off, 0.0])]  # beta_k >= 0
    lo = min(a - r for a, r in zip(alpha, radius))  # Gershgorin's bounds
    hi = max(a + r for a, r in zip(alpha, radius))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if above_all(mid):
            hi = mid
        else:
            lo = mid


def check_adjoint(L: LinearMap, trials: int = 16, seed: int = 0) -> float:
    """Max |<Lx, u> - <x, L^T u>| over seeded random probes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(L.cols)
        u = rng.standard_normal(L.rows)
        worst = max(worst, abs(float(L.apply(x) @ u) - float(x @ L.adjoint(u))))
    return worst


def firm_nonexpansiveness_violation(f: ProxFn, x, y, gamma: float = 1.0) -> float:
    """||px-py||^2 + ||(x-px)-(y-py)||^2 - ||x-y||^2 (<= tol for a true prox)."""
    x = as_vector(x, f.dim)
    y = as_vector(y, f.dim)
    px = f.prox(gamma, x)
    py = f.prox(gamma, y)
    lhs = np.linalg.norm(px - py) ** 2 + np.linalg.norm((x - px) - (y - py)) ** 2
    return float(lhs - np.linalg.norm(x - y) ** 2)


def gradient_check_error(f: SmoothFn, x, h: float = 1e-6) -> float:
    """Relative gap between f.grad and central finite differences of f.eval."""
    x = as_vector(x, f.dim)
    g = f.grad(x)
    fd = np.empty_like(g)
    for i in range(f.dim):
        e = np.zeros(f.dim)
        e[i] = h
        fd[i] = (f.eval(x + e) - f.eval(x - e)) / (2.0 * h)
    return float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)))
