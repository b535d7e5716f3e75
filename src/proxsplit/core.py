"""Core abstractions shared by the whole toolkit.

Vectors are plain 1-D float64 numpy arrays, validated to be finite.  Convex
functions are carried by small immutable wrappers: ``ProxFn`` exposes an
extended-real evaluation together with its proximity map, ``SmoothFn`` a
real-valued evaluation, gradient and Lipschitz constant.  ``LinearMap`` wraps
a linear operator through forward/adjoint callables; ``matrix_map`` builds
that pair from a matrix, which it alone attaches to the map.  Evaluation and
both products of a ``LinearMap``, ``apply`` and ``adjoint``, also take a
(k, dim) stack of points, one per row.
``Schedule``, ``IterationRecord`` and ``SolveResult`` are the solver plumbing.
A solve keeps one ``IterationRecord`` per iteration, a ``NamedTuple`` (one
trace row), so it equals the plain tuple of its fields and ``_replace``
gives a changed copy.

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
from typing import Callable, NamedTuple, Optional, Sequence, Union

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


def as_points(x, dim: int) -> Array:
    """Validate ``x`` as one finite vector of length ``dim`` (``as_vector``)
    or as a (k, dim) stack of them, returned C-contiguous so that each row is
    summed as the vector itself would be.  Only a 2-D ``x`` is a stack; a
    ragged nesting has no ``np.ndim`` and goes to ``as_vector``, which rejects it."""
    try:  # an ndarray's own ndim costs a tenth of np.ndim, and every vector takes this test
        stack = (x.ndim if type(x) is np.ndarray else np.ndim(x)) == 2
    except ValueError:
        stack = False
    if not stack:
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
    X = as_points(x, f.dim)
    return _row_values(f.value, X) if X.ndim == 2 else float(f.value(X))


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
    """A linear operator R^cols -> R^rows: its pair ``apply_impl``, ``adjoint_impl``.

    When ``tight_frame_nu`` is set, the operator is declared to satisfy
    L L^T = nu I; this is probed on a stack of three random vectors at construction.
    ``matrix`` is set by ``matrix_map`` alone, to the read-only matrix its
    two products multiply by; it is None on every other map.
    ``apply`` of a (k, cols) stack returns the (k, rows) images of its rows,
    and ``adjoint`` of a (k, rows) stack the (k, cols) ones: one ``np.matvec``
    with ``matrix`` (``matrix.T``) when the map carries one, each row equal to
    the one-vector product, and otherwise one implementation call per row, so
    ``apply_impl`` and ``adjoint_impl`` only ever see single vectors.

    An operator is fixed once built: the private ``_norms`` keeps, filled on
    first use, the ``operator_norm`` results by their arguments and the Gram
    factorization of ``_gram_solver``; ``dataclasses.replace`` gives a map
    with an empty memo and no ``matrix``, whose products are the original's.
    So ``apply_impl`` and ``adjoint_impl`` must compute the same operator for
    the map's lifetime: one that reads an array the caller edits later gives
    stale norms and solves, without warning.
    """

    rows: int
    cols: int
    apply_impl: Optional[Callable[[Array], Array]] = None
    adjoint_impl: Optional[Callable[[Array], Array]] = None
    tight_frame_nu: Optional[float] = None
    name: str = "L"
    matrix: Optional[Array] = field(default=None, init=False, repr=False, compare=False)
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", as_count(self.rows, "rows", 1))
        object.__setattr__(self, "cols", as_count(self.cols, "cols", 1))
        if self.apply_impl is None or self.adjoint_impl is None:
            raise InvalidParameterError("a LinearMap needs apply_impl and adjoint_impl")
        if self.tight_frame_nu is not None:
            nu = as_real(self.tight_frame_nu, "tight_frame_nu", above=0.0)
            object.__setattr__(self, "tight_frame_nu", nu)
            U = np.random.default_rng(7).standard_normal((3, self.rows))  # three probes, one per row
            gaps = norm(self.apply(self.adjoint(U)) - nu * U)
            failed = gaps > 1e-9 * np.maximum(1.0, norm(U))
            if failed.any():
                raise InvalidParameterError(
                    f"operator does not satisfy L L^T = {nu} I (probe gap {gaps[failed.argmax()]:.3e})"
                )

    def apply(self, x) -> Array:
        return _product(self.apply_impl, self.matrix, x, self.cols, self.rows)

    def adjoint(self, u) -> Array:
        return _product(self.adjoint_impl, None if self.matrix is None else self.matrix.T, u, self.rows, self.cols)

    def to_dense(self) -> Array:
        """The operator as a fresh matrix: a copy of ``matrix`` when the map
        carries one, otherwise the transposed images of the identity's rows,
        one ``apply`` of that stack (desk-scale only)."""
        if self.matrix is not None:
            return self.matrix.copy()
        return np.ascontiguousarray(self.apply(np.eye(self.cols)).T)


def _product(impl, matrix: Optional[Array], x, dim_in: int, dim_out: int) -> Array:
    """``apply`` or ``adjoint`` of a ``LinearMap``: ``impl`` of one checked
    vector, or of each row of a (k, dim_in) stack, whose rows one ``np.matvec``
    with ``matrix`` gives instead when the map carries one."""
    X = as_points(x, dim_in)
    if X.ndim == 1:
        return as_vector(impl(X), dim_out)
    if matrix is not None:
        return as_points(np.matvec(matrix, X), dim_out)
    return _each_row(lambda v: as_vector(impl(v), dim_out), X, (dim_out,))


def matrix_map(A, tight_frame_nu: Optional[float] = None, name: str = "L") -> LinearMap:
    """The operator x |-> A x, the one map that carries a ``matrix``: a
    checked, read-only copy of ``A`` in its memory layout (so the products
    keep the bytes of ``A @ x`` and ``A.T @ u``), which the products multiply
    by.  A later edit of the caller's array changes neither the map nor its
    memoized norm and factorization."""
    M = _matrix(A, name).copy(order="K")
    M.flags.writeable = False
    L = LinearMap(M.shape[0], M.shape[1], lambda x: M @ x, lambda u: M.T @ u, tight_frame_nu, name)
    object.__setattr__(L, "matrix", M)
    return L


def identity_map(n: int) -> LinearMap:
    """The identity on R^n, a tight frame with nu = 1.  It carries no matrix,
    so it costs O(1) memory and ``to_dense`` is n applies."""
    n = as_count(n, "n", 1)
    return LinearMap(n, n, lambda x: x, lambda u: u, tight_frame_nu=1.0, name="I")


def _gram_solver(maps: Sequence[LinearMap], a: float, singular: Optional[str] = None) -> Callable:
    """b |-> (a I + sum_i L_i^T L_i)^{-1} b over ``maps`` of one domain, for a >= 0.

    Each square map with a ``tight_frame_nu`` (L^T L = nu I) adds nu to a;
    with no map left, x = b / a.  A is the one map left, or a ``matrix_map``
    of the rest's ``to_dense`` copies stacked.  The eigenpairs (s, W) of its
    smaller Gram matrix, s clipped at 0, are taken on first use and kept in
    ``A._norms["gram"]``: the one read of a map's matrix outside ``LinearMap``.
    With d = a + s: for rows >= cols, A^T A = W diag(s) W^T and x = W diag(1/d) W^T b;
    for rows < cols, A A^T = U diag(s) U^T, W = A^T U, and the matrix-inversion
    lemma gives x = (b - W diag(1/d) W^T b) / a.  Its backward error grows as
    max(s) / a, so past 64 the solve splits b on range(A^T) instead: with
    t = W^T b and inv = 1/s where s > cols eps max(s) (0 elsewhere),
    y = (b - W (t inv)) / a and x = y + W ((t / d - W^T y) inv), whose second
    projection takes the range part of y's rounding back out.
    InvalidParameterError: a, the Gram matrix or a + max(s) overflows.
    PreconditionError(singular), given ``singular``: the smallest entry of d
    (a when rows < cols) is at most cols * eps times the largest.
    """
    rest = []
    for L in maps:  # a plain loop: this runs on every quadratic prox
        if L.tight_frame_nu is not None and L.rows == L.cols:
            a += L.tight_frame_nu
        else:
            rest.append(L)
    if not rest:
        if not math.isfinite(a):
            raise InvalidParameterError("a + sum_i nu_i overflows")
        return lambda b: b / a
    L = rest[0] if len(rest) == 1 else matrix_map(np.vstack([R.to_dense() for R in rest]))
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
    if not math.isfinite(a + float(s[-1])):  # Python floats: s ascends, so d[-1] = a + s[-1]
        raise InvalidParameterError(f"a + ||{L.name}||^2 overflows at a = {a!r}")
    d = a + s
    if singular is not None and not (a if wide else d[0]) > L.cols * np.finfo(float).eps * d[-1]:
        raise PreconditionError(singular)
    if not wide:
        return lambda b: W @ ((W.T @ b) / d)
    if s[-1] <= 64.0 * a:
        return lambda b: (b - W @ ((W.T @ b) / d)) / a
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > L.cols * np.finfo(float).eps * s[-1])

    def reprojected(b):
        t = W.T @ b
        y = (b - W @ (t * inv)) / a
        return y + W @ ((t / d - W.T @ y) * inv)

    return reprojected


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


class IterationRecord(NamedTuple):
    """One row of a solve's trace."""

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
    """Max |<Lx, u> - <x, L^T u>| over ``trials`` seeded random probes, drawn as
    one (trials, cols + rows) stack whose rows hold an x and then its u."""
    D = np.random.default_rng(seed).standard_normal((as_count(trials, "trials"), L.cols + L.rows))
    X, U = D[:, : L.cols], D[:, L.cols :]
    return float(np.max(np.abs(np.vecdot(L.apply(X), U) - np.vecdot(X, L.adjoint(U))), initial=0.0))


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
