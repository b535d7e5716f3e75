"""Closed convex sets with exact projections.

Each set exposes membership (within an absolute tolerance), the Euclidean
projection, the distance, and the support function value (``+inf`` where the
supremum is unbounded).  Each also takes a (k, dim) stack of points, one per
row, and returns k projections, distances, memberships or support values.
Degenerate constructor inputs (zero normals, negative radii, empty affine
systems) are rejected at construction, and malformed ones raise
``InvalidParameterError`` naming the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Array, InvalidParameterError, ProxFn, _matrix, _real_array, as_count, as_points, as_real, as_vector, norm

__all__ = [
    "MEMBERSHIP_TOL",
    "ConvexSet",
    "Box",
    "Halfspace",
    "Hyperplane",
    "Ball",
    "AffineSubspace",
    "orthant",
    "point",
    "indicator",
]

MEMBERSHIP_TOL = 1e-9


class ConvexSet:
    """Interface: nonempty closed convex subset of R^dim."""

    dim: int

    def project(self, x) -> Array:
        raise NotImplementedError

    def support(self, u):
        raise NotImplementedError

    def distance(self, x):
        x = as_points(x, self.dim)
        return norm(x - self.project(x))

    def contains(self, x, tol: float = MEMBERSHIP_TOL):
        return self.distance(x) <= tol


def _bound(value, name: str) -> Array:
    """A box bound as a 1-D float array of real numbers; ±inf entries are
    allowed, NaN, bools, complex numbers and strings are not."""
    v = _real_array(value)
    if v is None or v.ndim > 1 or np.any(np.isnan(v)):
        raise InvalidParameterError(f"box bound {name} must be a vector of numbers or ±inf, got {value!r}")
    return np.atleast_1d(v)


@dataclass(frozen=True)
class Box(ConvexSet):
    """{x : lo <= x <= hi} coordinatewise; infinite bounds allowed."""

    lo: Array
    hi: Array

    def __post_init__(self):
        lo, hi = _bound(self.lo, "lo"), _bound(self.hi, "hi")
        if lo.shape != hi.shape:
            raise InvalidParameterError("box bounds must be 1-D vectors of equal length")
        as_count(lo.size, "box dimension", 1)
        if np.any(lo > hi):
            raise InvalidParameterError("box needs lo <= hi in every coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def project(self, x) -> Array:
        return np.minimum(np.maximum(as_points(x, self.dim), self.lo), self.hi)  # np.clip's bytes, without its wrapper

    def support(self, u):
        u = as_points(u, self.dim)
        with np.errstate(invalid="ignore"):  # inf * 0 where u is 0, a discarded branch
            return np.sum(np.where(u > 0.0, self.hi * u, np.where(u < 0.0, self.lo * u, 0.0)), axis=-1)


@dataclass(frozen=True)
class _Plane(ConvexSet):
    """A set bounded by the hyperplane {x : a^T x = b}, a != 0."""

    a: Array
    b: float

    def __post_init__(self):
        a = as_vector(self.a, name="a")
        if np.linalg.norm(a) == 0.0:
            raise InvalidParameterError(f"{type(self).__name__.lower()} normal must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", as_real(self.b, "b"))

    @property
    def dim(self) -> int:
        return self.a.size

    def _normal_part(self, u):
        """t with t*a the projection of u on the normal, and whether u = t*a."""
        u = as_points(u, self.dim)
        t = np.vecdot(u, self.a) / float(self.a @ self.a)
        return t, norm(u - t[..., None] * self.a) <= 1e-10 * np.maximum(1.0, norm(u))


@dataclass(frozen=True)
class Halfspace(_Plane):
    """{x : a^T x <= b} with a != 0."""

    def project(self, x) -> Array:
        x = as_points(x, self.dim)
        excess = np.vecdot(x, self.a) - self.b
        if x.ndim == 1:
            return x if excess <= 0.0 else x - (excess / float(self.a @ self.a)) * self.a
        return np.where((excess > 0.0)[:, None], x - (excess / float(self.a @ self.a))[:, None] * self.a, x)

    def support(self, u):
        t, along = self._normal_part(u)  # finite only along the outward normal: t >= 0
        return np.where(along & (t >= -1e-12), np.maximum(t, 0.0) * self.b, np.inf)[()]


@dataclass(frozen=True)
class Hyperplane(_Plane):
    """{x : a^T x = b} with a != 0."""

    def project(self, x) -> Array:
        x = as_points(x, self.dim)
        step = (np.vecdot(x, self.a) - self.b) / float(self.a @ self.a)
        return x - step[..., None] * self.a

    def support(self, u):
        t, along = self._normal_part(u)
        return np.where(along, t * self.b, np.inf)[()]


@dataclass(frozen=True)
class Ball(ConvexSet):
    """Euclidean ball {x : ||x - center|| <= radius}, radius >= 0."""

    center: Array
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, name="center"))
        as_count(self.center.size, "center dimension", 1)
        object.__setattr__(self, "radius", as_real(self.radius, "radius", at_least=0.0))

    @property
    def dim(self) -> int:
        return self.center.size

    def project(self, x) -> Array:
        x = as_points(x, self.dim)
        d = x - self.center
        nd = norm(d)
        if x.ndim == 1:
            return x if nd <= self.radius else self.center + (self.radius / nd) * d
        inside = nd <= self.radius
        shrink = self.radius / np.where(inside, 1.0, nd)
        return np.where(inside[:, None], x, self.center + shrink[:, None] * d)

    def support(self, u):
        u = as_points(u, self.dim)
        return np.vecdot(u, self.center) + self.radius * norm(u)


@dataclass(frozen=True)
class AffineSubspace(ConvexSet):
    """{x : A x = b}; a dense pseudo-inverse is factored at construction."""

    A: Array
    b: Array
    _pinv: Array = field(init=False, repr=False, compare=False)
    _x0: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = _matrix(self.A, "A")
        b = as_vector(self.b, name="b")
        if A.shape[0] != b.size:
            raise InvalidParameterError(f"affine system needs b of length {A.shape[0]}, got {b.size}")
        pinv = np.linalg.pinv(A)
        x0 = pinv @ b
        if np.linalg.norm(A @ x0 - b) > 1e-8 * max(1.0, float(np.linalg.norm(b))):
            raise InvalidParameterError("inconsistent affine system: the set is empty")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_pinv", pinv)
        object.__setattr__(self, "_x0", x0)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def project(self, x) -> Array:
        x = as_points(x, self.dim)
        return x - np.matvec(self._pinv, np.matvec(self.A, x) - self.b)

    def support(self, u):
        # finite only for u in the row space of A
        u = as_points(u, self.dim)
        row_part = np.matvec(self.A.T, np.matvec(self._pinv.T, u))
        along = norm(u - row_part) <= 1e-10 * np.maximum(1.0, norm(u))
        return np.where(along, np.vecdot(u, self._x0), np.inf)[()]


def orthant(dim: int) -> Box:
    """Nonnegative orthant {x >= 0}."""
    dim = as_count(dim, "dim", 1)
    return Box(np.zeros(dim), np.full(dim, np.inf))


def point(c) -> Ball:
    """The singleton {c}."""
    return Ball(c, 0.0)


def indicator(C: ConvexSet) -> ProxFn:
    """Indicator function of C; its prox is the projection for every scale."""

    def value(x: Array):
        return np.where(C.contains(x), 0.0, np.inf)

    return ProxFn(
        dim=C.dim,
        value=value,
        prox_impl=lambda gamma, x: C.project(x),
        name=f"indicator({type(C).__name__})",
        convex_set=C,
    )
