"""One-dimensional numerical kernels, applied elementwise.

Safeguarded root finding, at one fixed tolerance and step cap, for the
implicit scalar prox equations that have no closed form, and a fixed-step
Lambert-W evaluation for the entropy prox.  Both take either a scalar or an
array: an array is a batch of independent one-dimensional problems solved
together, each root solve with its own bracket and its own stopping test.  A
scalar in gives a float out.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidParameterError

__all__ = [
    "Bracket",
    "BracketingError",
    "solve_monotone",
    "lambert_w_exp",
]


class BracketingError(RuntimeError):
    """A bracket without g(lo) <= 0 <= g(hi), g evaluated to NaN, or a root
    not found within ``solve_monotone``'s step cap."""


_TOL, _STEPS = 1e-14, 200  # solve_monotone's residual and width tolerance, and its step cap


@dataclass(frozen=True)
class Bracket:
    """A search interval [lo, hi] with lo < hi.

    The endpoints may be arrays (broadcast against each other), one interval
    per element; every element must satisfy lo < hi.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise InvalidParameterError("bracket endpoints must be finite")
        if not np.less(self.lo, self.hi).all():
            raise InvalidParameterError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")


def _flat_call(fn, p, shape):
    """fn at the flat points p, called in the caller's shape, as a flat array."""
    v = np.asarray(fn(p if p.shape == shape else p.reshape(shape)), dtype=float)
    return v if v.ndim == 1 else v.reshape(-1)


def _values(g, p, shape, where: str):
    v = _flat_call(g, p, shape)
    if np.count_nonzero(v != v):
        raise BracketingError(f"g evaluated to NaN {where}")
    return v


def solve_monotone(g, bracket: Bracket, dg):
    """Elementwise root of a continuous increasing g with g(lo) <= 0 <= g(hi)
    on every element's bracket.

    ``g`` maps an array of points, one per element of the bracket, to the
    array of values there, and ``dg`` to the derivatives of g.  Each element
    starts at the false-position point lo - g(lo)*(hi - lo)/(g(hi) - g(lo)) of
    the end values that the bracket check computes, or at the midpoint where
    that point is not finite or not strictly inside.  From there bisection is
    the backbone.  A Newton step from the last point replaces the midpoint
    where it lands strictly inside that element's bracket and is less than
    half the step before the last, so the bracket still shrinks
    geometrically.  A Newton point that equals p (a step below half a float
    spacing) is replaced by the float next to p toward the far end of the
    bracket, and is then taken or refused like any Newton point; if g changes
    sign there, no float is left strictly inside.  An element stops, and its
    point is frozen, at the first point p with |g(p)| <= 1e-14, or once its
    bracket is no wider than 1e-14 or holds no float strictly inside.  An
    element whose bracket fails g(lo) <= 0 <= g(hi) raises BracketingError
    naming that bracket before any step, as does g evaluated to NaN anywhere
    and an element still unsolved after 200 steps.  A scalar bracket gives a
    float.
    """
    lo, hi = np.broadcast_arrays(bracket.lo, bracket.hi)
    shape = lo.shape
    lo, hi = np.array(lo, dtype=float).reshape(-1), np.array(hi, dtype=float).reshape(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        glo, ghi = _values(g, lo, shape, "on the bracket"), _values(g, hi, shape, "on the bracket")
        bad = (glo > 0.0) | (ghi < 0.0)
        if np.count_nonzero(bad):
            k = int(np.argmax(bad))
            raise BracketingError(f"g(lo) <= 0 <= g(hi) fails on [{lo[k]}, {hi[k]}]: g = {glo[k]}, {ghi[k]}")
        active = (glo != 0.0) & (ghi != 0.0)
        # p of an element stays put once the element has met its stopping test.
        # Step lengths for the Newton test: the first step counts as half the
        # bracket width, and the step before it as the whole width.
        earlier = width = hi - lo
        last = 0.5 * earlier
        first = lo - width * (glo / (ghi - glo))
        first = np.where((lo < first) & (first < hi), first, lo + last)
        p = np.where(active, first, np.where(glo == 0.0, lo, hi))
        gp = glo
        for _ in range(_STEPS):
            gp = _flat_call(g, p, shape)
            # p on an end of its bracket: no float lies strictly inside.  A NaN
            # fails |g| > _TOL, so its element stops where g was NaN.
            active &= (np.abs(gp) > _TOL) & (width > _TOL) & (p > lo) & (p < hi)
            if not np.count_nonzero(active):
                break
            lower = gp < 0.0
            lo, hi = np.where(lower, p, lo), np.where(lower, hi, p)
            width = hi - lo
            length = 0.5 * width
            nxt = lo + length
            step = gp / _flat_call(dg, p, shape)
            newton, newton_length = p - step, np.abs(step)
            # p is now an end of its bracket, so the midpoint lies toward the far end
            np.nextafter(p, nxt, out=newton, where=(newton == p) & active)
            take = (lo < newton) & (newton < hi) & (newton_length + newton_length < earlier)
            np.copyto(nxt, newton, where=take)
            np.copyto(length, newton_length, where=take)
            earlier, last = last, length
            p = np.where(active, nxt, p)
        else:
            k = int(np.argmax(active))
            raise BracketingError(f"no root found in {_STEPS} steps on [{lo[k]}, {hi[k]}]")
        # the last values are those at the frozen points
        if np.count_nonzero(gp != gp):
            raise BracketingError("g evaluated to NaN inside the bracket")
    return float(p[0]) if shape == () else p.reshape(shape)


_W_STEPS = 2  # Fritsch-Shafer-Crowley steps of lambert_w_exp
_W_LOG_FROM = 700.0  # x above which lambert_w_exp works in the log domain
_E_INV = math.exp(-1.0)


def lambert_w_exp(x):
    """W(exp(x - 1)) for the principal Lambert-W branch, elementwise: the
    root w > 0 of w + ln w = x - 1.

    For x <= 700 the equation is w*e^w = y with y = e^x/e, whose rounding
    (about an ulp) is the only error carried into w; forming x - 1 first
    would cost up to 250 ulp near x = -512.  Above 700, where e^x
    overflows, it is taken in the log domain, with x - 1 exact.  The start is
    Winitzki's L*(1 - ln(1 + L)/(2 + L)) with L = ln(1 + y), or L = x - 1 in
    the log domain, within 2% of w everywhere.  Two steps of the
    quartically convergent iteration of Fritsch, Shafer & Crowley
    (CACM 16, 1973) follow, written so that no product overflows; measured
    against 150-bit references from x = -700 to 1e300, the result is within
    2 ulp, where a third step changes nothing.  A scalar in gives a float
    out.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError(f"lambert_w_exp needs finite input, got {x}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_domain = x > _W_LOG_FROM
        y = np.exp(np.minimum(x, _W_LOG_FROM)) * _E_INV
        c = np.where(log_domain, x - 1.0, 0.0)
        L = np.where(log_domain, c, np.log1p(y))
        w = L * (1.0 - np.log1p(L) / (2.0 + L))
        y = np.where(log_domain, 1.0, y)
        for _ in range(_W_STEPS):
            z = (c - w) + np.log(y / w)  # ln(x/w) - w for FSC's x = y*e^c
            u = z / (1.0 + w)
            w = w + w * (u * (1.0 + u / (2.0 * (1.0 + w + 2.0 * z / 3.0) - 2.0 * u)))
        w = np.fmax(w, 0.0)  # where e^x underflows to 0, w is 0/0 and the root rounds to 0
    return float(w) if w.ndim == 0 else w
