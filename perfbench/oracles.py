"""Output checks computed apart from proxsplit.

Nothing here imports the package: every check rebuilds the optimality
condition of its problem from raw arrays, with its own formulas, so a wrong
answer from the toolkit cannot also be the reference it is compared with.
Each function returns a residual (0 for an exact answer); the workloads
compare it with a fixed tolerance.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# lasso and TV-1D certificates
# ---------------------------------------------------------------------------


def lasso_kkt(A, y, w, x, kink: float = 1e-9) -> float:
    """Distance of A^T(y - Ax) from the subdifferential of sum_k w_k |x_k|.

    Coordinates with |x_k| <= kink count as zero, where the correlation only
    has to lie in [-w_k, w_k].
    """
    corr = A.T @ (y - A @ x)
    pos = x > kink
    neg = x < -kink
    zero = ~(pos | neg)
    worst = 0.0
    if pos.any():
        worst = max(worst, float(np.max(np.abs(corr[pos] - w[pos]))))
    if neg.any():
        worst = max(worst, float(np.max(np.abs(corr[neg] + w[neg]))))
    if zero.any():
        worst = max(worst, float(np.max(np.abs(corr[zero]) - w[zero])))
    return max(worst, 0.0)


def tv_certificate(r, omega: float, x, jump_tol: float = 1e-7) -> float:
    """Dual certificate of x = argmin omega*sum|x_{k+1}-x_k| + ||x-r||^2/2.

    Optimality reads r - x = D^T u with u in omega * subdiff ||.||_1 at Dx.
    Solving D^T u = r - x by cumulative sums gives u_k = sum_{i<=k} (x_i - r_i);
    the certificate then needs |u_k| <= omega, u_k = omega*sign(jump_k) on
    every jump, and a last partial sum of 0.  Returns the worst violation.
    """
    s = np.cumsum(x - r)
    end = abs(float(s[-1]))
    u = s[:-1]
    bound = max(float(np.max(np.abs(u))) - omega, 0.0)
    jumps = np.diff(x)
    on = np.abs(jumps) > jump_tol
    align = float(np.max(np.abs(u[on] - omega * np.sign(jumps[on])))) if on.any() else 0.0
    return max(end, bound, align)


# ---------------------------------------------------------------------------
# scalar kinds: own formulas for phi and an own 1-D minimiser
# ---------------------------------------------------------------------------


def _support(lo, hi):
    return lambda p: max(lo * p, hi * p)


def _log_threshold(lo, hi):
    def phi(p):
        if lo < p <= 0.0:
            return -math.log(p - lo) + math.log(-lo)
        if 0.0 < p < hi:
            return -math.log(hi - p) + math.log(hi)
        return math.inf

    return phi


def _nonneg(f):
    return lambda p: f(p) if p >= 0.0 else math.inf


def _positive(f):
    return lambda p: f(p) if p > 0.0 else math.inf


def _huber(kappa, omega):
    knee = omega / math.sqrt(2.0 * kappa)
    return lambda p: kappa * p * p if abs(p) <= knee else omega * math.sqrt(2.0 * kappa) * abs(p) - 0.5 * omega**2


# name -> (constructor parameters, phi, domain [lo, hi]; None for an unbounded side)
SCALAR_CASES = {
    "interval": ({"lo": -1.0, "hi": 2.0}, lambda p: 0.0 if -1.0 <= p <= 2.0 else math.inf, (-1.0, 2.0)),
    "interval_support": ({"lo": -0.5, "hi": 1.0}, _support(-0.5, 1.0), None),
    "smooth_plus_support": (
        {"psi": ("power_abs", {"kappa": 0.7, "q": 1.5}), "lo": -0.4, "hi": 0.8},
        lambda p: 0.7 * abs(p) ** 1.5 + max(-0.4 * p, 0.8 * p),
        None,
    ),
    "deadzone": ({"omega": 0.6}, lambda p: max(abs(p) - 0.6, 0.0), None),
    "power_abs": ({"kappa": 1.2, "q": 2.5}, lambda p: 1.2 * abs(p) ** 2.5, None),
    "huber": ({"kappa": 0.8, "omega": 1.1}, _huber(0.8, 1.1), None),
    "abs_quad_power": (
        {"omega": 0.3, "tau": 0.5, "kappa": 0.7, "q": 3.0},
        lambda p: 0.3 * abs(p) + 0.5 * p * p + 0.7 * abs(p) ** 3.0,
        None,
    ),
    "abs_minus_log": ({"omega": 1.3}, lambda p: 1.3 * abs(p) - math.log1p(1.3 * abs(p)), None),
    "linear_nonneg": ({"omega": 0.9}, _nonneg(lambda p: 0.9 * p), (0.0, None)),
    "neg_root": ({"omega": 1.1, "q": 2.0}, _nonneg(lambda p: -1.1 * p**0.5), (0.0, None)),
    "inverse_power": ({"omega": 0.8, "q": 2.0}, _positive(lambda p: 0.8 * p**-2.0), (0.0, None)),
    "entropy": ({}, _nonneg(lambda p: p * math.log(p) if p > 0.0 else 0.0), (0.0, None)),
    "log_threshold": ({"lo": -1.5, "hi": 2.0}, _log_threshold(-1.5, 2.0), (-1.5, 2.0)),
    "log_quadratic": (
        {"kappa": 0.9, "tau": 0.6, "alpha": -0.4},
        _positive(lambda p: -0.9 * math.log(p) + 0.3 * p * p - 0.4 * p),
        (0.0, None),
    ),
    "log_inverse": (
        {"kappa": 0.7, "alpha": 0.3, "omega": 0.5},
        _positive(lambda p: -0.7 * math.log(p) + 0.3 * p + 0.5 / p),
        (0.0, None),
    ),
    "log_power": (
        {"kappa": 0.8, "omega": 0.5, "q": 2.5},
        _positive(lambda p: -0.8 * math.log(p) + 0.5 * p**2.5),
        (0.0, None),
    ),
    "interval_log_barrier": (
        {"lo": -2.0, "hi": 3.0, "k_lo": 0.6, "k_hi": 0.9},
        lambda p: -0.6 * math.log(p + 2.0) - 0.9 * math.log(3.0 - p) if -2.0 < p < 3.0 else math.inf,
        (-2.0, 3.0),
    ),
}


def argmin_1d(F, lo: float, hi: float, scan: int = 201) -> float:
    """Minimiser of a convex F on [lo, hi] (F may be +inf off its domain).

    A uniform scan finds the best grid point; golden-section search then
    shrinks the two cells around it, which hold the minimiser by convexity.
    """
    xs = np.linspace(lo, hi, scan)
    vals = [F(float(v)) for v in xs]
    i = int(np.argmin(vals))
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, scan - 1)])
    best_p, best_v = float(xs[i]), vals[i]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = F(c), F(d)
    for _ in range(200):
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = F(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = F(d)
    mid = 0.5 * (a + b)
    fm = F(mid)
    return mid if fm <= best_v else best_p


def scalar_prox_reference(name: str, t: float, gamma: float) -> float:
    """argmin_p gamma*phi(p) + (t - p)^2/2 by direct 1-D minimisation."""
    _, phi, domain = SCALAR_CASES[name]
    width = 10.0 + 10.0 * gamma  # |t| <= 6 in every workload, so the prox lies inside
    lo, hi = t - width, t + width
    if domain is not None:
        if domain[0] is not None:
            lo = max(lo, domain[0])
        if domain[1] is not None:
            hi = min(hi, domain[1])

    def F(p: float) -> float:
        try:
            v = phi(p)
        except (OverflowError, ValueError, ZeroDivisionError):
            return math.inf  # off the open end of the domain
        return gamma * v + 0.5 * (t - p) ** 2 if math.isfinite(v) else math.inf

    return argmin_1d(F, lo, hi)


def firm_nonexpansive_gap(t, p) -> float:
    """Worst (p_i-p_j)^2 + ((t_i-p_i)-(t_j-p_j))^2 - (t_i-t_j)^2 over neighbours
    in sorted order; a true scalar prox keeps it <= 0 up to rounding."""
    order = np.argsort(t)
    ts, ps = t[order], p[order]
    dt = np.diff(ts)
    dp = np.diff(ps)
    return float(np.max(dp * dp + (dt - dp) ** 2 - dt * dt))


def soft(x, a):
    return np.sign(x) * np.maximum(np.abs(x) - a, 0.0)


def huber_prox(x, kappa: float, omega: float, gamma: float):
    shrink = 2.0 * gamma * kappa + 1.0
    slope = omega * math.sqrt(2.0 * kappa)
    inner = np.abs(x) <= slope * shrink / (2.0 * kappa)
    return np.where(inner, x / shrink, x - gamma * slope * np.sign(x))


def power15_prox(x, kappa: float, gamma: float = 1.0):
    """prox of kappa*|t|^1.5: with s = sqrt|p|, s^2 + 1.5*kappa*gamma*s = |x|."""
    c = 1.5 * kappa * gamma
    s = 0.5 * (-c + np.sqrt(c * c + 4.0 * np.abs(x)))
    return np.sign(x) * s * s


# ---------------------------------------------------------------------------
# sets
# ---------------------------------------------------------------------------


def dist_box(x, lo, hi) -> float:
    return float(np.linalg.norm(x - np.clip(x, lo, hi)))


def dist_ball(x, c, radius) -> float:
    return max(float(np.linalg.norm(x - c)) - radius, 0.0)


def dist_halfspace(x, a, b) -> float:
    return max(float(a @ x) - b, 0.0) / float(np.linalg.norm(a))


def project_box_halfspace(r, lo, hi, a, b):
    """Projection of r onto {lo <= x <= hi} ∩ {a.x <= b}.

    The KKT point is x(mu) = clip(r - mu*a, lo, hi) with mu >= 0 chosen so
    that a.x(mu) <= b with equality when mu > 0; a.x(mu) is nonincreasing in
    mu, so bisection finds it.
    """
    def x_of(mu):
        return np.clip(r - mu * a, lo, hi)

    if float(a @ x_of(0.0)) <= b:
        return x_of(0.0)
    lo_mu, hi_mu = 0.0, 1.0
    while float(a @ x_of(hi_mu)) > b:
        hi_mu *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo_mu + hi_mu)
        if float(a @ x_of(mid)) > b:
            lo_mu = mid
        else:
            hi_mu = mid
    return x_of(hi_mu)
