"""The proximity-operator catalog.

Two layers:

* scalar kinds -- one class per closed-form or root-solved scalar convex
  function, each exposing ``value(t)`` and ``prox(t, gamma)`` with the prox
  taken at an arbitrary positive scale.  Both are array-native: a scalar
  ``t`` gives a float, an array gives an array of the same shape, one
  independent scalar problem per element;
* calculus combinators -- constructors that build new ``ProxFn`` values out
  of existing ones (separable sums, translation, argument scaling,
  reflection, quadratic perturbation, conjugation, Moreau
  envelope/complement, squared distance, orthonormal decomposition,
  semi-orthogonal composition, quadratic losses, distance penalties,
  support functions and radial thresholding).  Every ``value`` broadcasts
  over the last axis: a (k, dim) stack of points gives their k values.  The
  values that go through a prox (the conjugate's fixed point, the Moreau
  envelope and complement) evaluate a stack row by row.

Each kind is written once, as numpy expressions that broadcast over the
input and over the kind's parameters.  ``separable`` and ``basis_separable``
use this to apply the separable-sum rule (the prox of sum_k phi_k(x_k) is
taken coordinatewise): at construction they group the coordinates by kind
and stack each group's parameters into arrays, so that every prox or
evaluation makes one call per group instead of one per coordinate.

Implicit prox equations are solved on the optimality residual
r(p) = p - t + gamma*phi'(p), which is strictly increasing with slope >= 1
wherever phi is differentiable.  Where r(p) = 0 is a polynomial equation of
degree at most 4 in p, in a root of p or, for the pole and barrier kinds,
once the poles are cleared, the prox is that polynomial's closed-form root:
quadratics (the power proxes at q = 2 and 3 among them) in forms that
neither overflow nor cancel, cubics (neg_root at q = 2, log_inverse, the
interval log-barrier and the power proxes at q = 5/2) through
``_cubic_root``, and the quartic of inverse_power at q = 2 through one
``_cubic_root`` call on its resolvent in ``_quartic_root``, each finished by
one Newton step on r.  The other equations are solved by
``_solve_bracket``, the one call of the elementwise ``scalar.solve_monotone``,
all coordinates of a group in one call, on a closed-form bracket and with
Newton steps from r', to the solver's residual tolerance, 1e-14, which
bounds the error in p as well.  A bracket's powers have their base widened
against rounding, and ``_solve_bracket`` widens the ends themselves.
``_power_root`` solves p + c*p^(q-1) = a for the power kinds, and
``_pole_root`` p - c*p^(-m) = t for neg_root and inverse_power at the
exponents without a closed form.
``ScalarKind.prox`` is the one boundary, as ``ProxFn.prox`` is: a point that
is not finite raises ``InvalidParameterError`` and a result that is not
finite ``InvalidInputError``, so no kind handles non-finite values itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import (
    Array,
    InvalidInputError,
    InvalidParameterError,
    LinearMap,
    PreconditionError,
    ProxFn,
    _each_row,
    _gram_solver,
    _matrix,
    _real_array,
    as_count,
    as_real,
    as_vector,
    norm,
    pow2,
)
from .scalar import Bracket, lambert_w_exp, solve_monotone

__all__ = [
    "ScalarKind",
    "Interval",
    "IntervalSupport",
    "SmoothPlusSupport",
    "Deadzone",
    "PowerAbs",
    "Huber",
    "AbsQuadPower",
    "AbsMinusLog",
    "LinearNonneg",
    "NegRoot",
    "InversePower",
    "Entropy",
    "LogThreshold",
    "LogQuadratic",
    "LogInverse",
    "LogPower",
    "IntervalLogBarrier",
    "SCALAR_KINDS",
    "scalar_prox",
    "separable",
    "basis_separable",
    "weighted_l1",
    "zero_fn",
    "quadratic_deviation",
    "scaled",
    "translated",
    "arg_scaled",
    "reflected",
    "quad_perturbed",
    "conjugate",
    "moreau_envelope",
    "moreau_complement",
    "squared_distance",
    "tight_frame_compose",
    "quadratic",
    "scaled_distance",
    "distance_penalty",
    "support_function",
    "support_plus_radial",
    "stacked",
]

# relative widening of a closed-form bracket end against its rounding
_MARGIN = 1e-12
_TINY = np.finfo(float).tiny
_SMALLEST = np.nextafter(0.0, 1.0)  # the smallest positive (subnormal) float
# absolute slack on domain boundaries, matching the sets membership tolerance:
# proxes composed with orthonormal transforms land within rounding of the
# boundary, and evaluation must not report +inf there
_DOMAIN_SLACK = 1e-9


def _quiet():
    """Silence the warnings of values computed and then discarded: branches
    that np.where drops (log of a negative, division by zero)."""
    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


def _solve_bracket(r, dr, lo, hi):
    """Solve r(p) = 0 by ``solve_monotone``, with Newton steps from dr, on a
    closed-form bracket [lo, hi] of a root in [0, inf), widened by _MARGIN
    against the rounding of its ends, which r multiplies where one term
    dominates.  A lower end below the normal range becomes 0, where the pole
    residuals are -inf and the power residual is -a, and the upper end is at
    least twice the smallest normal float, so a root below the normal range
    comes back at most that large."""
    lo = lo * (1.0 - _MARGIN)
    hi = np.maximum(hi * (1.0 + _MARGIN), 2.0 * _TINY)
    return solve_monotone(r, Bracket(np.where(lo < _TINY, 0.0, lo), hi), dg=dr)


def _inverse_root(A, a):
    """Positive root of p - A/p = a (A >= 0), finite for every finite a:
    h + sqrt(h^2 + A) with h = a/2, written as A over the conjugate for a < 0.
    The square root is taken as np.sqrt(h*h + A), and as np.hypot(h, sqrt(A))
    only where h*h overflows (|h| above about 1.3e154), since hypot costs
    about three times as much."""
    h = 0.5 * a
    with _quiet():
        r = np.sqrt(h * h + A)
    if r.max(initial=0.0) == math.inf:
        r = np.where(r < math.inf, r, np.hypot(h, np.sqrt(A)))
    u = np.abs(h) + r
    return np.where(h >= 0.0, u, A / u)


def _cubic_root(b, c, d, middle: bool = False):
    """The largest real root of x^3 + b*x^2 + c*x + d = 0, or with ``middle``
    the middle one of its three real roots, elementwise, for finite
    coefficients and d != 0.

    x is scaled by s = max(|b|, sqrt|c|, cbrt|d|), which bounds every root by
    3s, so no power overflows, and the scaled cubic is depressed to
    y^3 + P*y + Q with x = y - b/3.  Its real root of largest magnitude, x1,
    comes first.  Of three real roots m*cos(phi - 2k*pi/3) it is the outer
    one of larger |y - b/3|, where y and -b/3 do not have opposite signs.  A
    single real root is Cardano's u + v, the second term written as the
    product v = -P/(3u), and as -Q/(u^2 + v^2 + P/3) where P > 0 (the sinh
    case), so that neither sum cancels.  Where x1 < 0, and for the middle
    root, x1 is divided out: the quadratic left, x^2 + e*x + f with
    f = -d/x1, takes e from whichever of b + x1 and (f - c)/x1 rounds less,
    and its roots are g = -(e + sign(e)*sqrt(e^2 - 4f))/2 and f/g (Blinn,
    IEEE CG&A 2006-07; Kahan 1986).  ``middle`` takes the trigonometric form
    for x1 even where rounding puts the discriminant at or above 0.
    """
    with _quiet():
        s = np.maximum(np.maximum(np.abs(b), np.sqrt(np.abs(c))), np.cbrt(np.abs(d)))
        b0, c0, d0 = b, c, d
        b, c, d = b / s, c / s / s, d / s / s / s
        h = b / 3.0
        P, Q = c - b * h, d - h * (c - 2.0 * h * h)
        cube = P * P * P
        three = np.full(np.shape(P), True) if middle else 27.0 * Q * Q + 4.0 * cube < 0.0
        count = np.count_nonzero(three)
        if count:
            r = np.sqrt(P / -3.0)  # m = 2r
            phi = np.arccos(np.minimum(np.maximum(Q / (-2.0 * r * r * r), -1.0), 1.0)) / 3.0
            x1 = 2.0 * r * np.cos(phi) - h  # the largest root, of largest magnitude where h <= 0
            if middle or np.count_nonzero(h > 0.0):
                bottom = -2.0 * r * np.cos(phi - math.pi / 3.0) - h
                x1 = np.where(np.abs(x1) >= np.abs(bottom), x1, bottom)
        if count < three.size:
            # the discriminant rounds to either sign next to a double root
            u = np.cbrt(-0.5 * Q - np.copysign(np.sqrt(np.maximum(0.25 * Q * Q + cube / 27.0, 0.0)), Q))
            v = P / (-3.0 * u)  # u = 0 only for a triple root, at P = Q = 0
            one = np.where(P > 0.0, -Q / (u * u + v * v + P / 3.0), u + v) - h
            x1 = np.where(three, x1, one) if count else one
        if not middle and np.count_nonzero(x1 < 0.0) == 0:
            return s * x1
        # the quadratic in the unscaled variable, where f = -d/x1 keeps the digits
        # of a constant term that the scaling takes below the normal range
        first = np.abs(d / x1) + np.abs(c) < x1 * x1
        x1 = s * x1
        f = -d0 / x1
        e = np.where(first, (f - c0) / x1, b0 + x1)
        scale = np.maximum(np.abs(e), np.sqrt(np.abs(f)))  # > 0 for d != 0
        disc = (e / scale) ** 2 - 4.0 * (f / scale / scale)
        g = -0.5 * (e + np.copysign(scale * np.sqrt(np.maximum(disc, 0.0)), e))
        k = f / g
        if middle:
            return np.maximum(np.minimum(x1, g), np.minimum(np.maximum(x1, g), k))
        # a root x1 < 0 of largest magnitude leaves the largest root to the quadratic
        return np.where((x1 < 0.0) & (disc >= 0.0), np.maximum(g, k), x1)


def _pole_root(c, m, t):
    """Root p > 0 of p - c*p^(-m) = t (c, m > 0), the prox equation of
    neg_root and inverse_power, by ``_solve_bracket`` with Newton steps from
    the residual's derivative 1 + c*m*p^(-m-1).

    With s = c^(1/(1+m)), where p = c*p^(-m): for t >= 0 the root lies in
    [max(s, t), t + c*max(s, t)^(-m)]; for t < 0 it is at most
    hi = min(s, (c/-t)^(1/m)) and at least (c/(hi - t))^(1/m).  The 1/m powers
    multiply the rounding of their base by 1/m, so their base is widened
    here, and ``_solve_bracket`` widens the ends themselves.
    """
    with _quiet():  # each branch is computed for every element and one is discarded
        s = c ** (1.0 / (1.0 + m))
        above = np.maximum(s, t)
        hi = np.minimum(s, ((1.0 + _MARGIN) * c / -t) ** (1.0 / m))
        lo = ((1.0 - _MARGIN) * c / (hi - t)) ** (1.0 / m)
        lo, hi = np.where(t >= 0.0, above, lo), np.where(t >= 0.0, t + c * above**-m, hi)
    return _solve_bracket(lambda p: p - t - c * p**-m, lambda p: 1.0 + c * m * p ** (-m - 1.0), lo, hi)


def _quartic_root(c, t):
    """Root p > 0 of p - c*p^(-3) = t (c > 0), that is of p^4 - t*p^3 - c = 0,
    in closed form (Ferrari), and c^(1/4) at t = 0.

    With k = c^(1/4) and E = t/k, p = k/u where u > 0 solves the depressed
    quartic u^4 + E*u - 1 = 0.  Its resolvent cubic y^3 + y - E^2/8 = 0
    increases strictly, so it has one real root y >= 0, and with s = sqrt(2y)
    the quartic is (u^2 + y)^2 - (s*u - E/(2s))^2, the product of
    u^2 - s*u + y + E/(2s) and u^2 + s*u + y - E/(2s).  Their constant terms
    multiply to -1, so the factor whose constant is -1/K, with
    K = y + |E|/(2s), holds the positive root, u = (r -+ s)/2 with
    r = sqrt(s^2 + 4/K) and the sign of E: p = k*K*(r + s)/2 for t >= 0 (its
    2k/(r - s) written over the conjugate) and p = 2k/(r + s) for t < 0, sums
    of positive terms that do not cancel.  The resolvent is solved in
    z = y/tau^2 with tau = |E|^(1/3) = cbrt|t|/cbrt(k), as
    z^3 + z/tau^4 - 1/8 = 0, so that s = tau*sqrt(2z) and
    K = tau^2*(z + 1/(2*sqrt(2z))) overflow nowhere; tau is held to at least
    1e-10, so that 1/tau^4 is finite, which moves p by less than 1e-30 of
    itself.  One Newton step on the residual finishes the root.
    """
    with _quiet():
        k = np.sqrt(np.sqrt(c))
        tau = np.maximum(np.cbrt(np.abs(t)) / np.cbrt(k), 1e-10)
        tau2 = tau * tau
        z = _cubic_root(0.0, 1.0 / (tau2 * tau2), -0.125)
        root = np.sqrt(2.0 * z)
        s, K = tau * root, tau2 * (z + 0.5 / root)
        r = np.sqrt(s * s + 4.0 / K)
        p = np.where(t >= 0.0, k * K * (0.5 * (r + s)), k * (2.0 / (r + s)))
        w = c / p / p / p
        # r'(p)*p, not r'(p), which overflows for a root near 1e-100
        return _polish(p, (p - t - w) / (p + 3.0 * w) * p)


def _square(v):
    """v**2 as ``**`` rounds it (C's pow for a float, v*v for an array), but
    +inf past the float range, where a float's ``**`` raises."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _polish(p, step):
    """p less a Newton step, where that step is finite."""
    return np.where(np.isfinite(step), p - step, p)


def _power_five_halves(c, a):
    """p + c*p^(3/2) = a: c*u^3 + u^2 - a = 0 in u = sqrt(p), solved as
    w^3 - w/cbrt(a) - c = 0 in w = cbrt(a)/u, a cubic without a square term,
    and 0 at a = 0."""
    with _quiet():
        k = np.cbrt(a)
        p = (k / _cubic_root(0.0, -1.0 / k, -c)) ** 2
        root = np.sqrt(p)
        p = _polish(p, ((c * p * root - a) + p) / (1.0 + 1.5 * c * root))
        return np.where(0.0 < a, p, a)


def _power_square(c, a):
    return a / (1.0 + c)


def _power_cube(c, a):
    return a / (0.5 + np.hypot(0.5, np.sqrt(c) * np.sqrt(a)))


# the exponents q whose power root is closed form, with that form (c, a) -> p
_POWER_FORMS = {
    2.0: _power_square,
    3.0: _power_cube,
    2.5: _power_five_halves,
}


def _power_root(c, q, a):
    """Root p >= 0 of p + c*p^(q-1) = a (c > 0, a >= 0; 0 where a = 0).

    q = 2, 3 and 5/2 are closed forms, after Chaux, Combettes, Pesquet &
    Wajs (2007, Ex. 4.4).  q = 2 is p = a/(1 + c) and q = 3 is
    p = a/(1/2 + sqrt(1/4 + c*a)), with sqrt(c*a) taken as sqrt(c)*sqrt(a)
    inside ``np.hypot``, so that neither overflows nor cancels.  q = 5/2 is
    a cubic in 1/sqrt(p), solved by ``_cubic_root`` and finished by one
    Newton step on the residual.  Every other q is root-solved by
    ``_solved_power_root``.  A stack of kinds with mixed exponents (array q)
    takes the closed form on the elements that allow it and makes one solve
    for the rest.
    """
    if np.ndim(q):  # c and a are arrays of q's shape
        p = np.empty_like(a)
        rest = np.ones(q.shape, dtype=bool)
        for exponent, form in _POWER_FORMS.items():
            at = q == exponent
            if np.count_nonzero(at):
                p[at] = form(c[at], a[at])
                rest &= ~at
        if np.count_nonzero(rest):
            p[rest] = _solved_power_root(c[rest], q[rest] - 1.0, a[rest])
        return p
    form = _POWER_FORMS.get(q)
    return _solved_power_root(c, q - 1.0, a) if form is None else form(c, a)


def _power_ends(c, e, a):
    """Ends (lo, hi) of a bracket of the root p >= 0 of p + c*p^e = a (e > 0).

    Each term alone reaches a at most at min(a, (a/c)^(1/e)) and a/2 at
    least at min(a/2, (a/2c)^(1/e)), so the root lies between these two
    points, a factor of at most two apart.  The 1/e power multiplies the
    rounding of its base by 1/e, so the base is widened by _MARGIN.  On
    [0, a] Newton steps are refused near 0 for e < 1, where the slope is
    unbounded, and near a for e > 1, so that a solve from a past about 1e235
    bisects for 200 steps without reaching the root.
    """
    with _quiet():  # a/c may overflow, and the power end is then a
        lo = np.minimum(0.5 * a, ((1.0 - _MARGIN) * 0.5 * a / c) ** (1.0 / e))
        hi = np.minimum(a, ((1.0 + _MARGIN) * a / c) ** (1.0 / e))
    return lo, hi


def _solved_power_root(c, e, a):
    """Root p >= 0 of p + c*p^e = a (e > 0) on the ends of ``_power_ends``,
    capped at a, above which it cannot lie: below the normal range the
    solver's bracket reaches 2*tiny, and its first point can exceed a."""
    p = _solve_bracket(lambda p: p + c * p**e - a, lambda p: 1.0 + c * e * p ** (e - 1.0), *_power_ends(c, e, a))
    return np.minimum(p, a)


def _soft(t, a, b):
    """Soft threshold: t minus its clamp to [a, b]."""
    return t - np.minimum(np.maximum(t, a), b)


def _require(cond: bool, msg: str, *args) -> None:  # formats msg only on failure
    if not cond:
        raise InvalidParameterError(msg.format(*args))


# (above, at_least) bounds of ``as_real`` per numeric parameter, the same in every kind
_PARAM_RULES = {
    **dict.fromkeys(("omega", "kappa", "k_lo", "k_hi"), (0.0, None)),
    "q": (1.0, None),
    "tau": (None, 0.0),
    **dict.fromkeys(("alpha", "lo", "hi"), (None, None)),
}


@functools.cache
def _checked_params(cls) -> tuple:
    return tuple((f.name, _PARAM_RULES[f.name]) for f in fields(cls) if f.name in _PARAM_RULES)


class ScalarKind:
    """One scalar convex function phi with its proximity map, elementwise.

    ``value(t)`` is phi(t) and ``prox(t, gamma)`` the minimizer of
    gamma*phi(p) + 0.5*(t - p)^2.  A scalar ``t`` gives a float; an array
    gives an array of the same shape.  Subclasses implement ``_value`` and
    ``_prox`` on arrays, in expressions that also broadcast over the
    parameters, since ``separable`` calls them on kinds whose parameters are
    stacked into arrays.  Construction checks each numeric parameter against
    ``_PARAM_RULES`` and stores it as a float.  ``prox`` takes finite points
    only, and a result that is not finite raises ``InvalidInputError``.
    """

    def __post_init__(self):
        for name, rule in _checked_params(type(self)):
            object.__setattr__(self, name, as_real(getattr(self, name), name, *rule))

    def value(self, t):
        return _like(t, self._value(_points(t)))

    def prox(self, t, gamma: float = 1.0):
        points = _points(t)
        if not np.isfinite(points).all():
            raise InvalidParameterError("prox points must be finite")
        p = self._prox(points, as_real(gamma, "gamma", above=0.0))
        if not np.isfinite(p).all():
            raise InvalidInputError(f"{type(self).__name__} prox is not finite")
        return _like(t, p)

    def _value(self, t: Array) -> Array:
        raise NotImplementedError

    def _prox(self, t: Array, gamma: float) -> Array:
        raise NotImplementedError

    def _group_key(self):
        """Kinds with equal keys can be stacked into one kind."""
        return type(self)


def _points(t) -> Array:
    """The points ``t`` of ``ScalarKind.value`` and ``prox`` as a float array:
    a float as it is, anything else through ``_real_array``, so that a bool or
    a string is an ``InvalidInputError``."""
    a = np.asarray(t, dtype=float) if type(t) is float else _real_array(t)
    if a is None:
        raise InvalidInputError("scalar points must be real numbers")
    return a


def _like(t, out):
    return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class Interval(ScalarKind):
    """Indicator of [lo, hi]; prox is the clamp, independent of the scale."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        for name in ("lo", "hi"):  # unlike the table's finite rule, a bound may be infinite
            v = getattr(self, name)
            object.__setattr__(self, name, v if isinstance(v, (float, np.floating)) and math.isinf(v) else as_real(v, name))
        _require(self.lo < self.hi, "interval needs lo < hi, got [{0.lo}, {0.hi}]", self)

    def _value(self, t):
        return np.where((self.lo - _DOMAIN_SLACK <= t) & (t <= self.hi + _DOMAIN_SLACK), 0.0, math.inf)

    def _prox(self, t, gamma):
        return np.minimum(np.maximum(t, self.lo), self.hi)


@dataclass(frozen=True)
class IntervalSupport(ScalarKind):
    """Support function of [lo, hi]: max(lo*t, hi*t); prox is soft thresholding
    between the scaled endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        super().__post_init__()
        _require(self.lo < self.hi, "support interval needs lo < hi, got [{0.lo}, {0.hi}]", self)

    def _value(self, t):
        return np.maximum(self.lo * t, self.hi * t)

    def _prox(self, t, gamma):
        return _soft(t, gamma * self.lo, gamma * self.hi)


@dataclass(frozen=True)
class SmoothPlusSupport(ScalarKind):
    """psi + support of [lo, hi] for psi differentiable at 0 with psi'(0) = 0;
    prox chains the soft threshold into the prox of psi."""

    psi: ScalarKind
    lo: float
    hi: float

    def __post_init__(self):
        super().__post_init__()
        _require(isinstance(self.psi, ScalarKind), "psi must be a ScalarKind")
        _require(self.lo < self.hi, "support interval needs lo < hi, got [{0.lo}, {0.hi}]", self)

    def _value(self, t):
        return self.psi._value(t) + np.maximum(self.lo * t, self.hi * t)

    def _prox(self, t, gamma):
        return self.psi._prox(_soft(t, gamma * self.lo, gamma * self.hi), gamma)

    def _group_key(self):
        return (type(self), self.psi._group_key())


@dataclass(frozen=True)
class Deadzone(ScalarKind):
    """max(|t| - omega, 0): flat inside [-omega, omega], unit slope outside."""

    omega: float

    def _value(self, t):
        return np.maximum(np.abs(t) - self.omega, 0.0)

    def _prox(self, t, gamma):
        a = np.abs(t)
        p = np.where(a <= self.omega, a, np.where(a <= self.omega + gamma, self.omega, a - gamma))
        return np.where(t == 0.0, 0.0, np.copysign(p, t))


@dataclass(frozen=True)
class PowerAbs(ScalarKind):
    """kappa*|t|^q with q > 1; prox solves p + q*gamma*kappa*p^(q-1) = |t|,
    in closed form for q = 2 and q = 3 and by a root solve otherwise."""

    kappa: float
    q: float

    def _value(self, t):
        with np.errstate(over="ignore"):  # +inf past the float range
            return self.kappa * np.abs(t) ** self.q

    def _prox(self, t, gamma):
        a = np.abs(t)
        p = _power_root(self.q * gamma * self.kappa, self.q, a)
        return np.where(a == 0.0, 0.0, np.copysign(p, t))


@dataclass(frozen=True)
class Huber(ScalarKind):
    """kappa*t^2 near 0, slope omega*sqrt(2*kappa) beyond |t| = omega/sqrt(2*kappa)."""

    kappa: float
    omega: float

    def _value(self, t):
        a, root = np.abs(t), np.sqrt(2.0 * self.kappa)
        near = np.minimum(a, self.omega / root)  # a discarded square may overflow
        with _quiet():  # as may omega^2
            far = self.omega * root * a - 0.5 * _square(self.omega)
        return np.where(a <= self.omega / root, self.kappa * near * near, far)

    def _prox(self, t, gamma):
        root = np.sqrt(2.0 * self.kappa)
        shrink = 2.0 * gamma * self.kappa + 1.0
        return np.where(
            np.abs(t) <= self.omega * shrink / root, t / shrink, t - gamma * (self.omega * root) * np.copysign(1.0, t)
        )


@dataclass(frozen=True)
class AbsQuadPower(ScalarKind):
    """omega*|t| + tau*t^2 + kappa*|t|^q; prox chains a soft threshold, a
    quadratic shrink and the power prox (closed form for q = 2 and q = 3)."""

    omega: float
    tau: float
    kappa: float
    q: float

    def _value(self, t):
        a = np.abs(t)
        with np.errstate(over="ignore"):  # +inf past the float range
            return self.omega * a + self.tau * t * t + self.kappa * a**self.q

    def _prox(self, t, gamma):
        shrink = 2.0 * gamma * self.tau + 1.0
        w = np.maximum(np.abs(t) - gamma * self.omega, 0.0) / shrink
        p = _power_root(self.q * (gamma * self.kappa / shrink), self.q, w)
        return np.where(w == 0.0, 0.0, np.copysign(p, t))


@dataclass(frozen=True)
class AbsMinusLog(ScalarKind):
    """omega*|t| - ln(1 + omega*|t|): sublinear near 0, linear tails; u = omega*|p|
    solves u - a/u = a - gamma*omega^2 - 1 with a = omega*|t|."""

    omega: float

    def _value(self, t):
        with _quiet():  # +inf past the float range, where a - log1p(a) is inf - inf
            a = self.omega * np.abs(t)
            return np.where(a == math.inf, math.inf, a - np.log1p(a))

    def _prox(self, t, gamma):
        with _quiet():  # omega^2 may overflow, and p is then 0
            b = np.abs(t)
            a = self.omega * b
            p = _inverse_root(a, a - gamma * _square(self.omega) - 1.0) / self.omega
            if a.max(initial=0.0) == math.inf:
                # the equation divided through by omega: p - (|t|/omega)/p = |t| - gamma*omega - 1/omega
                p = np.where(a < math.inf, p, _inverse_root(b / self.omega, b - gamma * self.omega - 1.0 / self.omega))
        return np.where(t == 0.0, 0.0, np.copysign(p, t))


@dataclass(frozen=True)
class LinearNonneg(ScalarKind):
    """omega*t on t >= 0, +inf otherwise; prox is a one-sided soft threshold."""

    omega: float

    def _value(self, t):
        return np.where(t < -_DOMAIN_SLACK, math.inf, self.omega * np.maximum(t, 0.0))

    def _prox(self, t, gamma):
        return np.maximum(t - gamma * self.omega, 0.0)


@dataclass(frozen=True)
class NegRoot(ScalarKind):
    """-omega*t^(1/q) on t >= 0, +inf otherwise (q > 1).

    The prox solves p - c*p^(-m) = t with c = gamma*omega/q and m = 1 - 1/q.
    At q = 2, in a stack too where every exponent is 2, that is the cubic
    u^3 - t*u - c = 0 in u = sqrt(p), solved by ``_cubic_root``; its one
    Newton step is taken on the residual u^2 - t - c/u at p = u^2, whose one
    rounded term where -t and c/sqrt(p) cancel is c/u, and p = u^2, which can
    round to an ulp below the root, is held to at least t.  Every other q is
    root-solved by ``_pole_root``.
    """

    omega: float
    q: float

    def _value(self, t):
        return np.where(t < -_DOMAIN_SLACK, math.inf, -self.omega * np.maximum(t, 0.0) ** (1.0 / self.q))

    def _prox(self, t, gamma):
        c = gamma * self.omega / self.q
        if np.all(self.q == 2.0):
            u = _cubic_root(0.0, -t, -c)
            with _quiet():  # where u is near 0 the step is not finite, and u stays
                u = _polish(u, (u * u - t - c / u) / (2.0 * u + c / u / u))
            return np.maximum(u * u, t)
        return _pole_root(c, 1.0 - 1.0 / self.q, t)


@dataclass(frozen=True)
class InversePower(ScalarKind):
    """omega*t^(-q) on t > 0, +inf otherwise (q > 1).

    The prox solves p - c*p^(-m) = t with c = gamma*q*omega and m = q + 1.
    At q = 2, in a stack too where every exponent is 2, that is the quartic
    p^4 - t*p^3 - c = 0, solved in closed form by ``_quartic_root``; every
    other q is root-solved by ``_pole_root``.
    """

    omega: float
    q: float

    def _value(self, t):
        with _quiet():
            return np.where(t <= 0.0, math.inf, self.omega * t ** (-self.q))

    def _prox(self, t, gamma):
        c = gamma * self.q * self.omega
        if np.all(self.q == 2.0):
            return _quartic_root(c, t)
        return _pole_root(c, self.q + 1.0, t)


@dataclass(frozen=True)
class Entropy(ScalarKind):
    """t*ln(t) on t > 0 (0 at t = 0); prox is a scaled Lambert-W evaluation."""

    def _value(self, t):
        with _quiet():
            return np.where(t < -_DOMAIN_SLACK, math.inf, np.where(t <= 0.0, 0.0, t * np.log(t)))

    def _prox(self, t, gamma):
        with _quiet():  # t/gamma may overflow; lambert_w_exp names the error
            shifted = t / gamma - math.log(gamma)
        return gamma * lambert_w_exp(shifted)


@dataclass(frozen=True)
class LogThreshold(ScalarKind):
    """Split logarithm on ]lo, hi[ with lo < 0 < hi; its prox thresholds over
    [gamma/lo, gamma/hi] and saturates with asymptotes at lo and hi.  Past
    gamma/hi it is the smaller root of p^2 - (t + hi)*p + t*hi - gamma, as the
    product of the roots over the larger one, which does not cancel (below
    gamma/lo likewise), and a root that rounds to lo or hi moves one float in."""

    lo: float
    hi: float

    def __post_init__(self):
        super().__post_init__()
        _require(self.lo < 0.0 < self.hi, "needs lo < 0 < hi, got [{0.lo}, {0.hi}]", self)

    def _value(self, t):
        with _quiet():
            return np.where(
                (self.lo < t) & (t <= 0.0),
                -np.log(t - self.lo) + np.log(-self.lo),
                np.where((0.0 < t) & (t < self.hi), -np.log(self.hi - t) + np.log(self.hi), math.inf),
            )

    def _prox(self, t, gamma):
        lo, hi = self.lo, self.hi
        end = np.where(t < 0.0, lo, hi)  # the root's side
        larger = 0.5 * (t + end) + np.copysign(0.5 * np.hypot(t - end, 2.0 * np.sqrt(gamma)), end)
        with np.errstate(over="ignore"):  # a product past the float range rounds to ``end``
            p = (t * end - gamma) / larger
        p = np.where((gamma / lo <= t) & (t <= gamma / hi), 0.0, p)  # a NaN t keeps its NaN
        return np.minimum(np.maximum(p, np.nextafter(lo, hi)), np.nextafter(hi, lo))


@dataclass(frozen=True)
class LogQuadratic(ScalarKind):
    """-kappa*ln(t) + tau*t^2/2 + alpha*t on t > 0; the prox solves p - A/p = a
    with s = 1 + gamma*tau, A = gamma*kappa/s and a = (t - gamma*alpha)/s, and
    is at least the smallest positive float."""

    kappa: float
    tau: float = 0.0
    alpha: float = 0.0

    def _value(self, t):
        with _quiet():
            return np.where(t <= 0.0, math.inf, -self.kappa * np.log(t) + 0.5 * self.tau * t * t + self.alpha * t)

    def _prox(self, t, gamma):
        s = 1.0 + gamma * self.tau
        return np.maximum(_inverse_root(gamma * self.kappa / s, (t - gamma * self.alpha) / s), _SMALLEST)


@dataclass(frozen=True)
class LogInverse(ScalarKind):
    """-kappa*ln(t) + alpha*t + omega/t on t > 0.

    The prox solves p - A/p - B/p^2 = a with a = t - gamma*alpha,
    A = gamma*kappa and B = gamma*omega, that is the only positive root of
    p^3 - a*p^2 - A*p - B = 0, which for a >= 0 is at least each of a,
    sqrt(A) and cbrt(B).  For a < 0 it can lie far below the scale of the
    other roots, so there it is taken as k/w with k = cbrt(B) and w the
    positive root of w^3 + (A/k^2)*w^2 + (a/k)*w - 1 = 0, of the reversed
    cubic.  ``_cubic_root`` gives either as the largest root, and one Newton
    step on the residual finishes it.  Where a coefficient of the reversed
    cubic overflows, its term dominates: where A/k^2 does, A/p^2 outweighs
    B/p^3 and p solves p - A/p = a; where only a/k does, -a/p outweighs 1
    and p is the positive root of -a*p^2 - A*p - B = 0,
    h + hypot(h, sqrt(B/-a)) with h = A/(-2a).
    """

    kappa: float
    alpha: float
    omega: float

    def _value(self, t):
        with _quiet():
            return np.where(t <= 0.0, math.inf, -self.kappa * np.log(t) + self.alpha * t + self.omega / t)

    def _prox(self, t, gamma):
        a, A, B = t - gamma * self.alpha, gamma * self.kappa, gamma * self.omega
        k = np.cbrt(B)
        with _quiet():
            reverse = a < 0.0
            b, c = A / k / k, a / k
            x = _cubic_root(np.where(reverse, b, -a), np.where(reverse, c, -A), np.where(reverse, -1.0, -B))
            p = np.where(reverse, k / x, x)
            far = np.isnan(p)  # where a coefficient overflows
            if np.count_nonzero(far):
                h = 0.5 * A / -a
                quadratic = np.where(b == math.inf, _inverse_root(A, a), h + np.hypot(h, np.sqrt(B) / np.sqrt(-a)))
                p = np.where(far & reverse, quadratic, p)
            # r'(p)*p, not r'(p), which overflows for a root near 1e-150
            slope = p + (A + 2.0 * B / p) / p
            return _polish(p, (p - a - (A + B / p) / p) / slope * p)


@dataclass(frozen=True)
class LogPower(ScalarKind):
    """-kappa*ln(t) + omega*t^q on t > 0 (q > 1).

    The prox solves p - A/p + B*p^(q-1) = t with A = gamma*kappa and
    B = gamma*q*omega.  Without the power term the root of p - A/p = t is an
    upper end hi, and with the power term frozen at hi, the root of
    p - A/p = t - B*hi^(q-1) is a lower end lo.  Where hi^(q-1) overflows,
    that lower end drops to 0, so two more ends bound the root as the power
    kinds' roots are bounded: dropping -A/p lowers the root, to at least
    min(t/2, (t/2B)^(1/(q-1))), and for t > 0 freezing it at lo raises it,
    to at most min(a, (a/B)^(1/(q-1))) with a = t + A/lo.  The bracket is
    the tighter of each pair of ends.
    """

    kappa: float
    omega: float
    q: float

    def _value(self, t):
        with _quiet():
            return np.where(t <= 0.0, math.inf, -self.kappa * np.log(t) + self.omega * t**self.q)

    def _prox(self, t, gamma):
        def r(p):
            return p - t + gamma * (self.q * self.omega * p ** (self.q - 1.0) - self.kappa * p**-1.0)

        def dr(p):
            return 1.0 + gamma * (self.q * (self.q - 1.0) * self.omega * p ** (self.q - 2.0) + self.kappa * p**-2.0)

        A, B, e = gamma * self.kappa, gamma * self.q * self.omega, self.q - 1.0
        hi = _inverse_root(A, t)
        with _quiet():  # hi^e may overflow, and that end is then 0; a power end is NaN at a base < 0
            lo = np.fmax(_inverse_root(A, t - B * hi**e), _power_ends(B, e, t)[0])
            a = np.where(t > 0.0, t + A / lo, math.inf)  # for t <= 0 the sum may cancel
            hi = np.fmin(hi, _power_ends(B, e, a)[1])
        return _solve_bracket(r, dr, lo, hi)


@dataclass(frozen=True)
class IntervalLogBarrier(ScalarKind):
    """-k_lo*ln(t - lo) - k_hi*ln(hi - t) on ]lo, hi[."""

    lo: float
    hi: float
    k_lo: float
    k_hi: float

    def __post_init__(self):
        super().__post_init__()
        _require(math.nextafter(self.lo, self.hi) < self.hi, "barrier needs a float in ]lo, hi[, got [{0.lo}, {0.hi}]", self)

    def _value(self, t):
        with _quiet():
            return np.where(
                (self.lo < t) & (t < self.hi), -self.k_lo * np.log(t - self.lo) - self.k_hi * np.log(self.hi - t), math.inf
            )

    def _prox(self, t, gamma):
        """The prox lies at a distance w = h*x from the pole on its side of the
        midpoint m = (lo + hi)/2, h = (hi - lo)/2: from hi where r(m) <= 0,
        that is t >= m + (B - A)/h, and from lo otherwise.  With D = (hi - t)/h
        and K = B/h^2 on the upper side (D = (t - lo)/h and K = A/h^2 on the
        lower), the residual times w*(2h - w)/h^3 is the cubic
        x^3 - (D + 2)*x^2 + (2D - (A + B)/h^2)*x + 2K, positive at x = 0 and
        negative at x = 2, so x is its middle root.  ``_cubic_root`` finds it,
        to its own digits however near the pole, and one Newton step on the
        residual finishes it, with the pole terms taken at their distances w
        and 2h - w.  Below D = -1e300, where t lies that far beyond the pole,
        the pole term alone balances the distance to t wherever (A + B)/h^2 is
        below 1e284, and w is A/(lo - t) (B/(t - hi) on the upper side) to
        rounding.  D is held to +-1e300 in the cubic, and a root that rounds
        to an end of the domain is the next float inside.  Where a coefficient
        overflows (h below about 1e-154), the same cubic is solved in w:
        w^3 - h*(D + 2)*w^2 + (2*D*h^2 - A - B)*w + 2*K*h^3."""
        lo, hi, A, B = self.lo, self.hi, gamma * self.k_lo, gamma * self.k_hi
        m, h = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
        with _quiet():
            upper = t >= m + (B - A) / h
            dist, k = np.where(upper, hi - t, t - lo), np.where(upper, B, A)
            D = np.minimum(np.maximum(dist / h, -1e300), 1e300)
            w = h * _cubic_root(-(D + 2.0), 2.0 * D - (A + B) / h / h, 2.0 * k / h / h, middle=True)
            narrow = np.isnan(w)  # where a coefficient overflows
            if np.count_nonzero(narrow):
                in_w = _cubic_root(-(dist + 2.0 * h), 2.0 * dist * h - (A + B), 2.0 * k * h, middle=True)
                w = np.where(narrow, in_w, w)
            w = np.where((dist / h < -1e300) & ((A + B) / h / h < 1e284), k / -dist, w)
            far = 2.0 * h - w
            near_lo, near_hi = np.where(upper, far, w), np.where(upper, w, far)
            p = np.where(upper, hi - w, lo + w)
            p = _polish(p, (p - t - A / near_lo + B / near_hi) / (1.0 + A / near_lo / near_lo + B / near_hi / near_hi))
        return np.minimum(np.maximum(p, np.nextafter(lo, hi)), np.nextafter(hi, lo))


SCALAR_KINDS = {
    "interval": Interval,
    "interval_support": IntervalSupport,
    "smooth_plus_support": SmoothPlusSupport,
    "deadzone": Deadzone,
    "power_abs": PowerAbs,
    "huber": Huber,
    "abs_quad_power": AbsQuadPower,
    "abs_minus_log": AbsMinusLog,
    "linear_nonneg": LinearNonneg,
    "neg_root": NegRoot,
    "inverse_power": InversePower,
    "entropy": Entropy,
    "log_threshold": LogThreshold,
    "log_quadratic": LogQuadratic,
    "log_inverse": LogInverse,
    "log_power": LogPower,
    "interval_log_barrier": IntervalLogBarrier,
}


def scalar_prox(kind: ScalarKind, x: float, gamma: float = 1.0) -> float:
    """Minimizer of gamma*phi(p) + 0.5*(x - p)^2 for the given scalar kind."""
    return kind.prox(as_real(x, "x"), gamma)


# ---------------------------------------------------------------------------
# calculus combinators
# ---------------------------------------------------------------------------


def _with_params(cls, params: dict) -> ScalarKind:
    """A kind of class ``cls`` with already validated parameters, which may be
    arrays with one entry per coordinate."""
    kind = object.__new__(cls)
    for name, value in params.items():
        object.__setattr__(kind, name, value)
    return kind


def _stack(kinds: list) -> ScalarKind:
    """One kind of the common class of ``kinds`` whose parameters are arrays
    with an entry per kind (the kind itself when all entries are one object)."""
    first = kinds[0]
    if all(k is first for k in kinds):
        return first
    params = {}
    for f in fields(first):
        vals = [getattr(k, f.name) for k in kinds]
        params[f.name] = _stack(vals) if isinstance(vals[0], ScalarKind) else np.array(vals, dtype=float)
    return _with_params(type(first), params)


class _Groups:
    """Coordinates grouped by kind at construction, each group's parameters
    stacked, so that a prox or an evaluation is one call per group."""

    def __init__(self, kinds, n: int):
        """``kinds`` is one kind for all ``n`` coordinates or a list of n kinds."""
        self.n = n
        if isinstance(kinds, ScalarKind):
            self.groups = [(kinds, None)]
            return
        members = {}
        for i, k in enumerate(kinds):
            members.setdefault(k._group_key(), []).append(i)
        if len(members) == 1:
            self.groups = [(_stack(kinds), None)]
        else:
            self.groups = [(_stack([kinds[i] for i in idx]), np.array(idx)) for idx in members.values()]

    def value(self, t: Array):
        """The sum over the last axis: a float, or one per row of a stack."""
        if len(self.groups) == 1:
            return self.groups[0][0]._value(t).sum(axis=-1)
        return sum(k._value(t[..., idx]).sum(axis=-1) for k, idx in self.groups)

    def prox(self, gamma: float, t: Array) -> Array:
        if len(self.groups) == 1:
            return self.groups[0][0]._prox(t, gamma)
        out = np.empty(self.n)
        for k, idx in self.groups:
            out[idx] = k._prox(t[idx], gamma)
        return out


def separable(kinds, dim: int | None = None) -> ProxFn:
    """Coordinatewise sum of scalar kinds in the canonical basis.

    ``kinds`` is either a single kind broadcast over ``dim`` coordinates or a
    sequence with one kind per coordinate.  The coordinates are grouped by
    kind here, once, so that the prox and the evaluation make one vectorized
    call per kind present.
    """
    if isinstance(kinds, ScalarKind):
        if dim is None:
            raise InvalidParameterError("broadcasting a single kind requires dim")
        dim = as_count(dim, "dim", 1)
    else:
        kinds = list(kinds)
        if not kinds or not all(isinstance(k, ScalarKind) for k in kinds):
            raise InvalidParameterError("kinds must be a nonempty sequence of ScalarKind")
        if dim is not None and as_count(dim, "dim", 1) != len(kinds):
            raise InvalidParameterError(f"{len(kinds)} kinds for dimension {dim}")
        dim = len(kinds)
    groups = _Groups(kinds, dim)
    return ProxFn(dim=dim, value=groups.value, prox_impl=groups.prox, name="separable")


def basis_separable(kinds, basis) -> ProxFn:
    """Sum of scalar kinds applied to coordinates in an orthonormal basis.

    ``basis`` holds the basis vectors as columns; B^T B = I is probed at
    construction.  The prox maps to coordinates, applies the scalar proxes and
    maps back.
    """
    B = _matrix(basis, "basis")
    kinds = list(kinds)
    if B.shape[0] != B.shape[1] or B.shape[1] != len(kinds):
        raise InvalidParameterError("basis must be square with one column per kind")
    if np.linalg.norm(B.T @ B - np.eye(B.shape[1])) > 1e-10:
        raise InvalidParameterError("basis columns must be orthonormal")
    groups = _Groups(kinds, len(kinds))

    def value(x: Array):
        return groups.value(np.matvec(B.T, x))

    def prox_impl(gamma: float, x: Array) -> Array:
        return B @ groups.prox(gamma, B.T @ x)

    return ProxFn(dim=B.shape[0], value=value, prox_impl=prox_impl, name="basis_separable")


def weighted_l1(weights) -> ProxFn:
    """sum_k w_k |x_k| with w_k > 0 (coordinatewise soft threshold)."""
    w = as_vector(weights)
    if np.any(w <= 0):
        raise InvalidParameterError("l1 weights must be strictly positive")
    # one IntervalSupport whose endpoints hold a pair per coordinate
    return separable(_with_params(IntervalSupport, {"lo": -w, "hi": w}), dim=w.size)


def zero_fn(dim: int) -> ProxFn:
    """The zero function; its prox is the identity."""
    dim = as_count(dim, "dim", 1)
    return ProxFn(dim=dim, value=lambda x: np.zeros(x.shape[:-1]), prox_impl=lambda gamma, x: x, name="zero")


def quadratic_deviation(r, weight: float = 1.0) -> ProxFn:
    """(weight/2)*||x - r||^2 with its closed-form prox."""
    r = as_vector(r, name="r")
    as_count(r.size, "r dimension", 1)
    w = as_real(weight, "weight", above=0.0)

    def value(x: Array):
        return 0.5 * w * pow2(norm(x - r))

    def prox_impl(gamma: float, x: Array) -> Array:
        c = gamma * w
        return (x + c * r) / (1.0 + c)

    return ProxFn(dim=r.size, value=value, prox_impl=prox_impl, name="quadratic_deviation")


def scaled(base: ProxFn, coeff: float) -> ProxFn:
    """coeff * f for coeff > 0; the scale folds into the prox parameter."""
    coeff = as_real(coeff, "coeff", above=0.0)
    return ProxFn(
        dim=base.dim,
        value=lambda x: coeff * base.value(x),
        prox_impl=lambda gamma, x: base.prox(gamma * coeff, x),
        name=f"scaled({base.name})",
        convex_set=base.convex_set,
    )


def translated(base: ProxFn, z) -> ProxFn:
    """x |-> f(x - z)."""
    z = as_vector(z, base.dim)
    return ProxFn(
        dim=base.dim,
        value=lambda x: base.value(x - z),
        prox_impl=lambda gamma, x: z + base.prox(gamma, x - z),
        name=f"translated({base.name})",
    )


def arg_scaled(base: ProxFn, rho: float) -> ProxFn:
    """x |-> f(x / rho) for rho != 0 (negative rho allowed) whose square is a
    nonzero float."""
    rho = as_real(rho, "rho")
    square = _square(rho)
    _require(0.0 < square < math.inf, "rho must be != 0 with a finite square, got {0!r}", rho)
    return ProxFn(
        dim=base.dim,
        value=lambda x: base.value(x / rho),
        prox_impl=lambda gamma, x: rho * base.prox(gamma / square, x / rho),
        name=f"arg_scaled({base.name})",
    )


def reflected(base: ProxFn) -> ProxFn:
    """x |-> f(-x): argument scaling by -1, whose divisions by -1 and (-1)^2
    are exact."""
    return replace(arg_scaled(base, -1.0), name=f"reflected({base.name})")


def quad_perturbed(base: ProxFn, alpha: float = 0.0, u=None, offset: float = 0.0) -> ProxFn:
    """x |-> f(x) + alpha*||x||^2/2 + u^T x + offset with alpha >= 0."""
    alpha = as_real(alpha, "alpha", at_least=0.0)
    u = np.zeros(base.dim) if u is None else as_vector(u, base.dim)
    offset = as_real(offset, "offset")

    def value(x: Array):
        return base.value(x) + 0.5 * alpha * np.vecdot(x, x) + np.vecdot(x, u) + offset

    def prox_impl(gamma: float, x: Array) -> Array:
        denom = 1.0 + gamma * alpha
        return base.prox(gamma / denom, (x - gamma * u) / denom)

    return ProxFn(dim=base.dim, value=value, prox_impl=prox_impl, name=f"quad_perturbed({base.name})")


def _conjugate_value(base: ProxFn, u: Array) -> float:
    """f*(u) through the fixed point w = prox_f(w) + u; exact by Fenchel-Young
    once converged.  An iteration that has not converged after 5000 steps
    signals u outside dom f*, reported as +inf."""
    w = u.copy()
    for _ in range(5000):
        w, previous = base.prox(1.0, w) + u, w
        if norm(w - previous) <= 1e-14 * max(1.0, norm(previous)):
            break
    else:
        return math.inf
    p = base.prox(1.0, w)
    return float(u @ p) - base.eval(p)


def conjugate(base: ProxFn, value_fn=None) -> ProxFn:
    """Fenchel conjugate f*; the prox comes from the Moreau decomposition
    prox_{gamma f*}(x) = x - gamma * prox_{f/gamma}(x/gamma).

    ``value_fn`` overrides the evaluation with a closed form; without it the
    conjugate is evaluated by an iterative subgradient inversion (accurate for
    the catalog functions but slower than a closed form).
    """
    value = value_fn if value_fn is not None else lambda x: _each_row(functools.partial(_conjugate_value, base), x)
    return ProxFn(
        dim=base.dim,
        value=value,
        prox_impl=lambda gamma, x: x - gamma * base.prox(1.0 / gamma, x / gamma),
        name=f"conjugate({base.name})",
    )


def _envelope_value(base: ProxFn, x: Array) -> float:
    """The Moreau envelope of ``base`` at one vector, through one prox call."""
    p = base.prox(1.0, x)
    return base.eval(p) + 0.5 * float(np.linalg.norm(x - p) ** 2)


def moreau_envelope(base: ProxFn) -> ProxFn:
    """Infimal convolution of f with ||.||^2/2; evaluated through one prox call."""
    value_one = functools.partial(_envelope_value, base)

    def prox_impl(gamma: float, x: Array) -> Array:
        return (x + gamma * base.prox(1.0 + gamma, x)) / (1.0 + gamma)

    return ProxFn(
        dim=base.dim, value=lambda x: _each_row(value_one, x), prox_impl=prox_impl, name=f"envelope({base.name})"
    )


def moreau_complement(base: ProxFn) -> ProxFn:
    """||x||^2/2 minus the Moreau envelope of f."""

    def value_one(x: Array) -> float:
        return 0.5 * float(x @ x) - _envelope_value(base, x)

    def prox_impl(gamma: float, x: Array) -> Array:
        return x - gamma * base.prox(1.0 / (1.0 + gamma), x / (1.0 + gamma))

    return ProxFn(
        dim=base.dim, value=lambda x: _each_row(value_one, x), prox_impl=prox_impl, name=f"complement({base.name})"
    )


def squared_distance(ind: ProxFn) -> ProxFn:
    """d_C^2/2 for the set carried by an indicator function."""
    C = ind.convex_set
    if C is None:
        raise InvalidParameterError("squared_distance requires an indicator function")

    def value(x: Array):
        return 0.5 * pow2(C.distance(x))

    def prox_impl(gamma: float, x: Array) -> Array:
        return (x + gamma * C.project(x)) / (1.0 + gamma)

    return ProxFn(dim=ind.dim, value=value, prox_impl=prox_impl, name="squared_distance")


def tight_frame_compose(base: ProxFn, L: LinearMap) -> ProxFn:
    """f o L for a semi-orthogonal L (L L^T = nu I, declared on the map)."""
    if L.tight_frame_nu is None:
        raise PreconditionError("composition requires a declared tight-frame constant on L")
    # LinearMap checked L L^T = nu I on random probes when the map was built
    nu = L.tight_frame_nu
    if base.dim != L.rows:
        raise InvalidParameterError("base dimension must match the operator range")

    def value(x: Array):
        return base.value(L.apply(x))  # a matrix-free L applies a stack row by row

    def prox_impl(gamma: float, x: Array) -> Array:
        Lx = L.apply(x)
        return x + L.adjoint(base.prox(gamma * nu, Lx) - Lx) / nu

    return ProxFn(dim=L.cols, value=value, prox_impl=prox_impl, name=f"compose({base.name},{L.name})")


def quadratic(L: LinearMap, y, weight: float = 1.0) -> ProxFn:
    """(weight/2)*||L x - y||^2.

    The prox at scale gamma solves (a I + L^T L) p = a x + L^T y, with
    a = 1/(gamma*weight), by ``core._gram_solver``: a division for a square L with
    a ``tight_frame_nu``, else L's Gram factorization, taken at construction
    unless L holds it, for every gamma.  Only that reads a matrix: L^T y and
    the value use ``L.adjoint`` and ``L.apply``.  a and a*max|x| must be
    finite floats (``InvalidParameterError`` otherwise).
    """
    y = as_vector(y, L.rows)
    w = as_real(weight, "weight", above=0.0)
    Aty = L.adjoint(y)
    _gram_solver([L], 0.0)  # factors L now, not in the first prox

    def value(x: Array):
        return 0.5 * w * pow2(norm(L.apply(x) - y))

    def prox_impl(gamma: float, x: Array) -> Array:
        if (a := 1.0 / gamma / w) == math.inf:  # 1/(gamma*weight), with no product to underflow to 0
            raise InvalidParameterError(f"quadratic's prox scale gamma*weight = {gamma * w!r} has no finite reciprocal")
        if a > 1.0 and not math.isfinite(a * (m := float(np.abs(x).max()))):  # a <= 1 cannot overflow a finite x
            raise InvalidParameterError(f"quadratic's prox overflows a*x at gamma*weight = {gamma * w!r}, max|x| = {m!r}")
        return _gram_solver([L], a, "quadratic's prox scale gamma*weight is past the solvable range")(x * a + Aty)

    return ProxFn(dim=L.cols, value=value, prox_impl=prox_impl, name="quadratic")


def scaled_distance(C, weight: float = 1.0) -> ProxFn:
    """weight * d_C(x); the prox moves toward the projection, by at most the scale."""
    w = as_real(weight, "weight", above=0.0)

    def value(x: Array):
        return w * C.distance(x)

    def prox_impl(gamma: float, x: Array) -> Array:
        proj = C.project(x)
        d = float(np.linalg.norm(x - proj))
        step = gamma * w
        if d > step:
            return x + step * (proj - x) / d
        return proj

    return ProxFn(dim=C.dim, value=value, prox_impl=prox_impl, name="scaled_distance")


def _check_even(phi: ScalarKind) -> None:
    for t in (0.37, 1.21, 2.83):
        a, b = phi.value(t), phi.value(-t)
        if a != b and abs(a - b) > 1e-9 * (1.0 + abs(a)):
            raise InvalidParameterError("phi must be an even function")


def distance_penalty(C, phi: ScalarKind) -> ProxFn:
    """phi(d_C(x)) for even phi, differentiable at 0 with phi'(0) = 0."""
    _check_even(phi)

    def value(x: Array):
        return phi.value(C.distance(x))

    def prox_impl(gamma: float, x: Array) -> Array:
        proj = C.project(x)
        d = float(np.linalg.norm(x - proj))
        if d <= 1e-14:
            return x
        return x + (1.0 - phi.prox(d, gamma) / d) * (proj - x)

    return ProxFn(dim=C.dim, value=value, prox_impl=prox_impl, name="distance_penalty")


def support_function(C) -> ProxFn:
    """Support function of C; prox via the Moreau decomposition with the projection."""

    def value(x: Array):
        return C.support(x)

    def prox_impl(gamma: float, x: Array) -> Array:
        return x - gamma * C.project(x / gamma)

    return ProxFn(dim=C.dim, value=value, prox_impl=prox_impl, name="support")


def support_plus_radial(C, phi: ScalarKind, argmin_max: float = 0.0) -> ProxFn:
    """sigma_C(x) + phi(||x||) for even, non-constant phi.

    ``argmin_max`` is max(Argmin phi); it must be finite (phi with unbounded
    argmin sets are outside this constructor's scope) and defaults to 0, the
    argmin of every strictly-convex-at-0 even phi.
    """
    _check_even(phi)
    argmin_max = as_real(argmin_max, "argmin_max", at_least=0.0)

    def value(x: Array):
        return C.support(x) + phi.value(norm(x))

    def prox_impl(gamma: float, x: Array) -> Array:
        proj = gamma * C.project(x / gamma)  # projection onto gamma*C
        diff = x - proj
        d = float(np.linalg.norm(diff))
        if d > argmin_max:
            return (phi.prox(d, gamma) / d) * diff
        return diff

    return ProxFn(dim=C.dim, value=value, prox_impl=prox_impl, name="support_plus_radial")


def stacked(fs) -> ProxFn:
    """Direct sum over consecutive blocks: F(x) = sum_i f_i(x_i)."""
    fs = list(fs)
    if not fs:
        raise InvalidParameterError("stacked needs at least one function")
    dims = [f.dim for f in fs]
    offsets = np.cumsum([0] + dims)
    total = int(offsets[-1])

    def value(x: Array):
        return sum(f.eval(x[..., a:b]) for f, a, b in zip(fs, offsets[:-1], offsets[1:]))

    def prox_impl(gamma: float, x: Array) -> Array:
        return np.concatenate([f.prox(gamma, x[a:b]) for f, a, b in zip(fs, offsets[:-1], offsets[1:])])

    return ProxFn(dim=total, value=value, prox_impl=prox_impl, name="stacked")
