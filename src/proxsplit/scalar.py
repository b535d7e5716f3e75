"""One-dimensional numerical kernels, applied elementwise.

Safeguarded root finding, at one fixed tolerance and step cap, for the
implicit scalar prox equations and a log-domain Lambert-W evaluation for the
entropy prox.  Both take either a scalar or an array: an array is a batch of
independent one-dimensional problems solved together, each with its own
bracket and its own stopping test.  A scalar in gives a float out.  All
functions are pure.
"""

from __future__ import annotations

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
    array of values there, and ``dg`` to the derivatives of g.  Bisection is
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
        p = np.where(glo == 0.0, lo, hi)
        # p of an element stays put once the element has met its stopping test.
        # Step lengths for the Newton test: the first point is the midpoint,
        # and the step before it counts as the whole bracket width.
        earlier = width = hi - lo
        last = 0.5 * earlier
        p = np.where(active, lo + last, p)
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


def lambert_w_exp(x):
    """W(exp(x - 1)) for the principal Lambert-W branch, computed in log
    domain, elementwise.

    Solves w + ln w = x - 1 for w > 0 (equivalently v + e^v = c with w = e^v),
    which avoids forming exp(x - 1) and therefore stays finite for large x.
    Newton on the strictly convex increasing v |-> e^v + v - c converges
    monotonically from a point left of the root; each element stops when its
    step falls to 1e-16 relative or stops shrinking.  A scalar in gives a
    float out.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError(f"lambert_w_exp needs finite input, got {x}")
    c = x - 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        # k(v) <= 0 at both starts: left of the root
        v = np.where(c > 1.0, np.log(c - np.log(c)), c - 1.0)
    done = np.zeros(c.shape, dtype=bool)
    last = np.full(c.shape, np.inf)
    for _ in range(80):
        ev = np.exp(v)
        step = (ev + v - c) / (ev + 1.0)
        size = np.abs(step)
        v = np.where(done, v, v - step)
        # in exact arithmetic the steps shrink monotonically; a step that does
        # not is rounding noise, so the element has converged
        done = done | (size <= 1e-16 * np.maximum(1.0, np.abs(v))) | (size >= last)
        last = size
        if done.all():
            break
    w = np.exp(v)
    return float(w) if w.ndim == 0 else w
