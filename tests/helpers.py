"""Shared test utilities: the golden-section scalar prox oracle, randomized
draw generators for every scalar prox kind (with oracle brackets proven to
contain the prox), independent 2-D grid oracles for the prox and for the
best approximation, one-probe-at-a-time references for ``check_adjoint``
and the best-approximation validator, one-record-at-a-time references for
the trace writer and reader, the calculus-rule verification suite, and two
references for 1-D total variation: the pairwise terms in a dense
orthonormal basis and Condat's direct algorithm."""

from __future__ import annotations

import math

import numpy as np

from proxsplit import catalog as cat
from proxsplit import sets
from proxsplit.cli import TRACE_HEADER
from proxsplit.core import InvalidInputError, IterationRecord, as_vector, matrix_map, norm, pow2
from proxsplit.scalar import Bracket

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink ratio


class InfeasibleBracketError(ValueError):
    """The objective is non-finite everywhere on the scanned bracket."""


def scalar_prox_oracle(phi, x: float, bracket: Bracket, tol: float = 1e-12) -> float:
    """Reference minimizer of phi(p) + 0.5*(x - p)^2 over the bracket.

    Ground truth for the scalar proxes, independent of the root finder.  A
    33-point scan first locates a finite value (raising
    InfeasibleBracketError when phi is non-finite at every scanned point);
    golden-section search then shrinks the bracket, breaking +inf ties toward
    the best finite point seen so far, which is safe because the domain of a
    convex phi is an interval.
    """
    x = float(x)

    def obj(p: float) -> float:
        return phi(p) + 0.5 * (x - p) ** 2

    a, b = float(bracket.lo), float(bracket.hi)
    best_p, best_v = math.nan, math.inf
    scan = 33
    for i in range(scan):
        t = a + (b - a) * i / (scan - 1)
        v = obj(t)
        if v < best_v:
            best_p, best_v = t, v
    if not math.isfinite(best_v):
        raise InfeasibleBracketError("objective non-finite everywhere on the bracket")

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = obj(c), obj(d)
    for _ in range(300):
        if b - a <= tol:
            break
        if fc < best_v:
            best_p, best_v = c, fc
        if fd < best_v:
            best_p, best_v = d, fd
        if fc < fd or (fc == fd and best_p <= c):
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = obj(d)
    mid = 0.5 * (a + b)
    if obj(mid) <= best_v:
        return mid
    return best_p

KIND_NAMES = [
    "interval",
    "interval_support",
    "smooth_plus_support",
    "deadzone",
    "power_abs",
    "huber",
    "abs_quad_power",
    "abs_minus_log",
    "linear_nonneg",
    "neg_root",
    "inverse_power",
    "entropy",
    "log_threshold",
    "log_quadratic",
    "log_inverse",
    "log_power",
    "interval_log_barrier",
]


def draw_case(name, rng):
    """One randomized (kind, x, gamma, oracle bracket) case.

    Brackets are derived from per-kind prox bounds so they always contain the
    true prox.
    """
    g = float(rng.uniform(0.2, 4.0))
    x = float(rng.uniform(-8.0, 8.0))
    if name == "interval":
        lo = float(rng.uniform(-3.0, 0.0))
        hi = lo + float(rng.uniform(0.2, 3.0))
        return cat.Interval(lo, hi), x, g, Bracket(lo, hi)
    if name == "interval_support":
        lo = float(rng.uniform(-3.0, 0.5))
        hi = lo + float(rng.uniform(0.2, 3.0))
        w = abs(x) + g * (abs(lo) + abs(hi)) + 1.0
        return cat.IntervalSupport(lo, hi), x, g, Bracket(-w, w)
    if name == "smooth_plus_support":
        if rng.random() < 0.5:
            psi = cat.PowerAbs(float(rng.uniform(0.1, 2.0)), float(rng.uniform(1.5, 3.0)))
        else:
            psi = cat.Huber(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.2, 2.0)))
        lo = float(rng.uniform(-2.0, 0.0))
        hi = lo + float(rng.uniform(0.2, 2.5))
        w = abs(x) + g * (abs(lo) + abs(hi)) + 1.0
        return cat.SmoothPlusSupport(psi, lo, hi), x, g, Bracket(-w, w)
    if name == "deadzone":
        return cat.Deadzone(float(rng.uniform(0.1, 3.0))), x, g, Bracket(-abs(x) - 1, abs(x) + 1)
    if name == "power_abs":
        kind = cat.PowerAbs(float(rng.uniform(0.1, 3.0)), float(rng.uniform(1.2, 3.5)))
        return kind, x, g, Bracket(-abs(x) - 1, abs(x) + 1)
    if name == "huber":
        kind = cat.Huber(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)))
        return kind, x, g, Bracket(-abs(x) - 1, abs(x) + 1)
    if name == "abs_quad_power":
        kind = cat.AbsQuadPower(
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(1.2, 3.5)),
        )
        return kind, x, g, Bracket(-abs(x) - 1, abs(x) + 1)
    if name == "abs_minus_log":
        kind = cat.AbsMinusLog(float(rng.uniform(0.1, 3.0)))
        return kind, x, g, Bracket(-abs(x) - 1, abs(x) + 1)
    if name == "linear_nonneg":
        kind = cat.LinearNonneg(float(rng.uniform(0.1, 3.0)))
        return kind, x, g, Bracket(-1.0, abs(x) + 1.0)
    if name == "neg_root":
        omega = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(1.2, 3.5))
        hi = abs(x) + g * omega / q + 2.0
        return cat.NegRoot(omega, q), x, g, Bracket(0.0, hi)
    if name == "inverse_power":
        omega = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(1.2, 3.5))
        hi = abs(x) + g * q * omega + 2.0
        return cat.InversePower(omega, q), x, g, Bracket(1e-8, hi)
    if name == "entropy":
        return cat.Entropy(), x, g, Bracket(0.0, max(abs(x), 1.0) + 2.0)
    if name == "log_threshold":
        lo = float(rng.uniform(-3.0, -0.3))
        hi = float(rng.uniform(0.3, 3.0))
        pad = 1e-6 * (hi - lo)
        return cat.LogThreshold(lo, hi), x, g, Bracket(lo + pad, hi - pad)
    if name == "log_quadratic":
        kappa = float(rng.uniform(0.1, 3.0))
        tau = float(rng.uniform(0.0, 2.0))
        alpha = float(rng.uniform(-2.0, 2.0))
        hi = abs(x) + g * abs(alpha) + math.sqrt(g * kappa) + 2.0
        return cat.LogQuadratic(kappa, tau, alpha), x, g, Bracket(1e-8, hi)
    if name == "log_inverse":
        kappa = float(rng.uniform(0.1, 3.0))
        alpha = float(rng.uniform(-2.0, 2.0))
        omega = float(rng.uniform(0.1, 3.0))
        hi = abs(x) + g * (abs(alpha) + kappa + omega) + 2.0
        return cat.LogInverse(kappa, alpha, omega), x, g, Bracket(1e-8, hi)
    if name == "log_power":
        kappa = float(rng.uniform(0.1, 3.0))
        omega = float(rng.uniform(0.1, 3.0))
        q = float(rng.uniform(1.2, 3.5))
        hi = abs(x) + g * kappa + 2.0
        return cat.LogPower(kappa, omega, q), x, g, Bracket(1e-8, hi)
    if name == "interval_log_barrier":
        lo = float(rng.uniform(-3.0, 1.0))
        hi = lo + float(rng.uniform(0.5, 4.0))
        k_lo = float(rng.uniform(0.1, 2.0))
        k_hi = float(rng.uniform(0.1, 2.0))
        pad = 1e-6 * (hi - lo)
        return cat.IntervalLogBarrier(lo, hi, k_lo, k_hi), x, g, Bracket(lo + pad, hi - pad)
    raise KeyError(name)


def oracle_prox(kind, x: float, gamma: float, bracket: Bracket) -> float:
    return scalar_prox_oracle(lambda p: gamma * kind.value(p), x, bracket, tol=1e-13)


def scalar_kind_max_error(name: str, draws: int = 100, seed: int = 0) -> float:
    rng = np.random.default_rng(seed + hash(name) % 10_000)
    worst = 0.0
    for _ in range(draws):
        kind, x, g, bracket = draw_case(name, rng)
        worst = max(worst, abs(kind.prox(x, g) - oracle_prox(kind, x, g, bracket)))
    return worst


def grid_min_2d(F, center, halfwidth: float, rounds: int = 6, pts: int = 81) -> np.ndarray:
    """Coarse-to-fine grid minimizer of F over a square in R^2.

    Each round scans a pts x pts grid and re-centers a window three cells
    wide around the best point.  Intended as an independent brute-force
    oracle for desk-scale tests; F may return +inf (infeasible cells).  F
    takes the round's grid as one (pts^2, 2) stack, x-major, and returns one
    value per row; the first smallest value wins, as in an x-major loop that
    keeps a point only when it is strictly better, and NaN never wins.
    """
    cx, cy = float(center[0]), float(center[1])
    h = float(halfwidth)
    for _ in range(rounds):
        xs = np.linspace(cx - h, cx + h, pts)
        ys = np.linspace(cy - h, cy + h, pts)
        grid = np.column_stack([np.repeat(xs, pts), np.tile(ys, pts)])
        values = np.asarray(F(grid), dtype=float)
        values = np.where(np.isnan(values), np.inf, values)
        i = int(np.argmin(values))
        if not np.isfinite(values[i]):
            raise InvalidInputError("grid oracle found no finite value")
        cx, cy = grid[i]
        h = 3.0 * (2.0 * h / (pts - 1))
    return np.array([cx, cy])


def grid_best_approximation_oracle(C, D, r, center=None, halfwidth: float = 4.0) -> np.ndarray:
    """Grid-search projection of r onto C ∩ D (2-D sets only)."""
    r = as_vector(r, 2)

    def F(P: np.ndarray) -> np.ndarray:
        feasible = C.contains(P, tol=1e-7) & D.contains(P, tol=1e-7)
        return np.where(feasible, pow2(norm(P - r)), np.inf)

    return grid_min_2d(F, center if center is not None else np.zeros(2), halfwidth)


def vi_violation_per_probe(C, D, r, x, count: int = 64, seed: int = 5) -> float:
    """Reference for the best-approximation validator's ``vi_violation``:
    max(0, max_p (r - x)^T (p - x)) over feasible probes p, each drawn,
    projected 60 times onto C then D, and scored on its own."""
    rng = np.random.default_rng(seed)
    vi = 0.0
    for _ in range(count):
        z = rng.standard_normal(C.dim) * 2.0
        for _ in range(60):
            z = D.project(C.project(z))
        vi = max(vi, float((r - x) @ (z - x)))
    return vi


def check_adjoint_per_probe(L, trials: int = 16, seed: int = 0) -> float:
    """Reference for ``core.check_adjoint``: each probe x, then its u, drawn
    and tested on its own with the one-vector products."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(L.cols)
        u = rng.standard_normal(L.rows)
        worst = max(worst, abs(float(L.apply(x) @ u) - float(x @ L.adjoint(u))))
    return worst


def write_trace_per_record(path: str, records) -> None:
    """Reference for ``cli.write_trace``: the header, then one f-string line
    written per record."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.iteration},{rec.objective!r},{rec.residual!r},{rec.elapsed_ns}\n")


def read_trace_per_line(path: str) -> list:
    """Reference for ``cli.read_trace``: each line split and converted on its
    own, so the first malformed one raises, naming its 1-based number."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise InvalidInputError(f"unexpected trace header: {header!r}")
        records = []
        for number, line in enumerate(fh, 2):
            try:
                it, obj, res, ns = line.rstrip("\n").split(",")
                records.append(IterationRecord(int(it), float(obj), float(res), int(ns)))
            except ValueError as exc:
                raise InvalidInputError(f"trace line {number}: {exc}") from None
        return records


def grid_prox_2d(f, x, gamma: float = 1.0, halfwidth: float = 6.0) -> np.ndarray:
    """Independent brute-force prox oracle on R^2 (coarse-to-fine grid)."""
    x = np.asarray(x, dtype=float)

    def objective(P: np.ndarray) -> np.ndarray:
        return gamma * f.eval(P) + 0.5 * pow2(norm(x - P))

    return grid_min_2d(objective, x, halfwidth)


def _soft(x: float, level: float) -> float:
    if x > level:
        return x - level
    if x < -level:
        return x + level
    return 0.0


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def calculus_rule_errors(seed: int = 0) -> dict:
    """Max |catalog prox - oracle| for each of the 16 calculus rules."""
    rng = np.random.default_rng(seed)
    errors = {}
    abs1 = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1)  # |t|

    # translation: z + prox(x - z), against per-coordinate golden section
    base = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2)
    z = np.array([1.5, -0.7])
    shifted = cat.translated(base, z)
    worst = 0.0
    for _ in range(40):
        x = rng.uniform(-4, 4, size=2)
        g = float(rng.uniform(0.3, 3.0))
        p = shifted.prox(g, x)
        for i in range(2):
            w = abs(x[i]) + abs(z[i]) + g + 2
            ref = scalar_prox_oracle(lambda t, i=i: g * abs(t - z[i]), x[i], Bracket(-w, w), tol=1e-13)
            worst = max(worst, abs(p[i] - ref))
    errors["translation"] = worst

    # argument scaling: phi(x/rho) for phi = |.| equals |x|/|rho|
    worst = 0.0
    for _ in range(60):
        rho = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        scaled = cat.arg_scaled(abs1, rho)
        x = float(rng.uniform(-5, 5))
        g = float(rng.uniform(0.3, 3.0))
        worst = max(worst, abs(scaled.prox(g, [x])[0] - _soft(x, g / abs(rho))))
    errors["scaling"] = worst

    # reflection of an asymmetric function, against golden section
    lin = cat.separable(cat.LinearNonneg(1.3), dim=1)
    refl = cat.reflected(lin)
    worst = 0.0
    for _ in range(60):
        x = float(rng.uniform(-5, 5))
        g = float(rng.uniform(0.3, 3.0))
        ref = scalar_prox_oracle(
            lambda p: g * ((-1.3) * p if p <= 0 else math.inf), x, Bracket(-abs(x) - 2, 1.0), tol=1e-13
        )
        worst = max(worst, abs(refl.prox(g, [x])[0] - ref))
    errors["reflection"] = worst

    # quadratic perturbation of |.|
    worst = 0.0
    for _ in range(40):
        alpha = float(rng.uniform(0.0, 2.0))
        u = float(rng.uniform(-1.5, 1.5))
        c = float(rng.uniform(-1.0, 1.0))
        pert = cat.quad_perturbed(abs1, alpha=alpha, u=[u], offset=c)
        x = float(rng.uniform(-5, 5))
        g = float(rng.uniform(0.3, 3.0))
        w = abs(x) + g * (1 + abs(u)) + 2
        ref = scalar_prox_oracle(
            lambda p: g * (abs(p) + 0.5 * alpha * p * p + u * p + c), x, Bracket(-w, w), tol=1e-13
        )
        worst = max(worst, abs(pert.prox(g, [x])[0] - ref))
    errors["quad_perturbation"] = worst

    # conjugation: (indicator [-1,1])* = |.|, so prox is the soft threshold
    box1 = cat.separable(cat.Interval(-1.0, 1.0), dim=1)
    conj = cat.conjugate(box1)
    worst = 0.0
    for _ in range(60):
        x = float(rng.uniform(-5, 5))
        g = float(rng.uniform(0.3, 3.0))
        worst = max(worst, abs(conj.prox(g, [x])[0] - _soft(x, g)))
    # biconjugation returns the original prox
    biconj = cat.conjugate(conj)
    for _ in range(20):
        x = float(rng.uniform(-5, 5))
        worst = max(worst, abs(biconj.prox(1.0, [x])[0] - box1.prox(1.0, [x])[0]))
    errors["conjugation"] = worst

    # squared distance to a box, against the 2-D grid oracle
    C = sets.Box(np.zeros(2), np.ones(2))
    sqd = cat.squared_distance(sets.indicator(C))
    worst = 0.0
    for _ in range(4):
        x = rng.uniform(-2.5, 2.5, size=2)
        g = float(rng.uniform(0.4, 2.5))
        worst = max(worst, float(np.max(np.abs(sqd.prox(g, x) - grid_prox_2d(sqd, x, g, halfwidth=5.0)))))
    errors["squared_distance"] = worst

    # Moreau envelope of an interval indicator equals d^2/2: same prox values
    env = cat.moreau_envelope(cat.separable(cat.Interval(0.0, 1.0), dim=1))
    sqd1 = cat.squared_distance(sets.indicator(sets.Box([0.0], [1.0])))
    worst = 0.0
    for _ in range(60):
        x = float(rng.uniform(-4, 4))
        g = float(rng.uniform(0.3, 3.0))
        worst = max(worst, abs(env.prox(g, [x])[0] - sqd1.prox(g, [x])[0]))
        ref = scalar_prox_oracle(lambda p: g * env.eval([p]), x, Bracket(-6.0, 6.0), tol=1e-13)
        worst = max(worst, abs(env.prox(g, [x])[0] - ref))
    errors["moreau_envelope"] = worst

    # Moreau complement of t^2/2: analytically 2x/3 at unit scale
    compl = cat.moreau_complement(cat.separable(cat.PowerAbs(0.5, 2.0), dim=1))
    worst = 0.0
    for _ in range(60):
        x = float(rng.uniform(-4, 4))
        g = float(rng.uniform(0.3, 3.0))
        ref = scalar_prox_oracle(lambda p: g * compl.eval([p]), x, Bracket(-6.0, 6.0), tol=1e-13)
        worst = max(worst, abs(compl.prox(g, [x])[0] - ref))
        worst = max(worst, abs(compl.prox(1.0, [x])[0] - 2.0 * x / 3.0))
    errors["moreau_complement"] = worst

    # decomposition in a rotated orthonormal basis.  Smooth kinds go against
    # the grid oracle; the kinked one-direction case |b1.x| has the
    # hand-derived closed form x + (soft(t) - t) b1 with t = b1.x, since the
    # orthogonal component is untouched by a function of b1.x alone.
    B = _rotation(0.61)
    deco = cat.basis_separable([cat.Huber(0.8, 1.1), cat.PowerAbs(0.7, 2.2)], B)
    worst = 0.0
    for _ in range(4):
        x = rng.uniform(-2.5, 2.5, size=2)
        g = float(rng.uniform(0.4, 2.5))
        worst = max(worst, float(np.max(np.abs(deco.prox(g, x) - grid_prox_2d(deco, x, g, halfwidth=6.0)))))
    a = 1.3
    deco_abs = cat.basis_separable([cat.IntervalSupport(-a, a), cat.Interval()], B)
    b1 = B[:, 0]
    for _ in range(40):
        x = rng.uniform(-3, 3, size=2)
        g = float(rng.uniform(0.3, 3.0))
        t = float(b1 @ x)
        expected = x + (_soft(t, g * a) - t) * b1
        worst = max(worst, float(np.max(np.abs(deco_abs.prox(g, x) - expected))))
    errors["decomposition"] = worst

    # semi-orthogonal composition with L = sqrt(2) * rotation (nu = 2): smooth
    # base against the grid oracle
    L = matrix_map(math.sqrt(2.0) * _rotation(0.37), tight_frame_nu=2.0)
    tf = cat.tight_frame_compose(cat.separable(cat.Huber(0.9, 1.2), dim=2), L)
    worst = 0.0
    for _ in range(4):
        x = rng.uniform(-2.0, 2.0, size=2)
        g = float(rng.uniform(0.4, 2.0))
        worst = max(worst, float(np.max(np.abs(tf.prox(g, x) - grid_prox_2d(tf, x, g, halfwidth=6.0)))))
    # row map [1, 1] with nu = 2: |x1 + x2| has the hand-derived closed form
    # p = x - ((s - soft(s, 2*gamma))/2) * (1, 1) with s = x1 + x2, because the
    # objective splits along the diagonal and its orthogonal complement
    row = matrix_map(np.array([[1.0, 1.0]]), tight_frame_nu=2.0)
    tf_row = cat.tight_frame_compose(cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1), row)
    for _ in range(40):
        x = rng.uniform(-3.0, 3.0, size=2)
        g = float(rng.uniform(0.3, 3.0))
        s = float(x[0] + x[1])
        expected = x - 0.5 * (s - _soft(s, 2.0 * g)) * np.ones(2)
        worst = max(worst, float(np.max(np.abs(tf_row.prox(g, x) - expected))))
    errors["semi_orthogonal"] = worst

    # quadratic loss (weight/2)||Lx - y||^2, against the grid oracle
    A = rng.standard_normal((3, 2))
    yv = rng.standard_normal(3)
    quad = cat.quadratic(matrix_map(A), yv, weight=1.7)
    worst = 0.0
    for _ in range(4):
        x = rng.uniform(-2.0, 2.0, size=2)
        g = float(rng.uniform(0.4, 2.0))
        worst = max(worst, float(np.max(np.abs(quad.prox(g, x) - grid_prox_2d(quad, x, g, halfwidth=6.0)))))
    errors["quadratic_loss"] = worst

    # indicator: prox is the projection, scale-free
    ball = sets.Ball(np.zeros(2), 1.0)
    ind = sets.indicator(ball)
    worst = 0.0
    for _ in range(60):
        x = rng.uniform(-3, 3, size=2)
        g = float(rng.uniform(0.3, 5.0))
        nx = float(np.linalg.norm(x))
        expected = x if nx <= 1.0 else x / nx
        worst = max(worst, float(np.max(np.abs(ind.prox(g, x) - expected))))
    errors["indicator"] = worst

    # scaled distance to a ball: radial 1-D reduction gives the closed form
    # (move the radius r of x toward the ball radius R by the one-sided soft
    # rule), derived by hand from the rotational symmetry about the center
    w_dist = 0.9
    dist = cat.scaled_distance(ball, weight=w_dist)
    center, R = ball.center, ball.radius
    worst = 0.0
    for _ in range(40):
        x = rng.uniform(-3, 3, size=2)
        g = float(rng.uniform(0.3, 3.0))
        d = x - center
        rad = float(np.linalg.norm(d))
        if rad <= R:
            expected = x
        elif rad <= R + g * w_dist:
            expected = center + (R / rad) * d
        else:
            expected = center + ((rad - g * w_dist) / rad) * d
        worst = max(worst, float(np.max(np.abs(dist.prox(g, x) - expected))))
    dist0 = cat.scaled_distance(sets.point([0.0]), weight=1.0)
    for _ in range(40):
        x = float(rng.uniform(-5, 5))
        g = float(rng.uniform(0.3, 3.0))
        worst = max(worst, abs(dist0.prox(g, [x])[0] - _soft(x, g)))
    errors["distance"] = worst

    # smooth function of the distance, against the grid oracle
    pen = cat.distance_penalty(sets.Ball(np.array([0.3, -0.2]), 0.8), cat.Huber(1.0, 1.0))
    worst = 0.0
    for _ in range(4):
        x = rng.uniform(-3, 3, size=2)
        g = float(rng.uniform(0.4, 2.5))
        worst = max(worst, float(np.max(np.abs(pen.prox(g, x) - grid_prox_2d(pen, x, g, halfwidth=6.0)))))
    # phi = t^2/2 with C = {0} gives ||x||^2/2, prox x/(1+gamma)
    pen0 = cat.distance_penalty(sets.point(np.zeros(2)), cat.PowerAbs(0.5, 2.0))
    for _ in range(40):
        x = rng.uniform(-3, 3, size=2)
        g = float(rng.uniform(0.3, 3.0))
        worst = max(worst, float(np.max(np.abs(pen0.prox(g, x) - x / (1.0 + g)))))
    errors["distance_penalty"] = worst

    # support function of the unit box is the l1 norm
    sup = cat.support_function(sets.Box(-np.ones(2), np.ones(2)))
    worst = 0.0
    for _ in range(60):
        x = rng.uniform(-4, 4, size=2)
        g = float(rng.uniform(0.3, 3.0))
        expected = np.array([_soft(x[0], g), _soft(x[1], g)])
        worst = max(worst, float(np.max(np.abs(sup.prox(g, x) - expected))))
    errors["support"] = worst

    # radial thresholding: sigma_{0} + omega*||.|| is the block soft threshold
    thr = cat.support_plus_radial(sets.point(np.zeros(2)), cat.IntervalSupport(-1.3, 1.3))
    worst = 0.0
    for _ in range(60):
        x = rng.uniform(-4, 4, size=2)
        g = float(rng.uniform(0.3, 3.0))
        nx = float(np.linalg.norm(x))
        expected = np.zeros(2) if nx <= 1.3 * g else (1.0 - 1.3 * g / nx) * x
        worst = max(worst, float(np.max(np.abs(thr.prox(g, x) - expected))))
    # deadzone radial part exercises the max-Argmin branch; sigma_{0} = 0, so
    # by rotational symmetry the prox reduces to the 1-D radial prox, taken
    # here from the golden-section oracle
    dz = cat.Deadzone(0.5)
    thr2 = cat.support_plus_radial(sets.point(np.zeros(2)), dz, argmin_max=0.5)
    for _ in range(40):
        x = rng.uniform(-3, 3, size=2)
        g = float(rng.uniform(0.4, 2.0))
        rad = float(np.linalg.norm(x))
        pref = scalar_prox_oracle(lambda t: g * dz.value(t), rad, Bracket(-rad - 1, rad + 1), tol=1e-13)
        expected = (pref / rad) * x if rad > 0 else x
        worst = max(worst, float(np.max(np.abs(thr2.prox(g, x) - expected))))
    # box support plus a quadratic radial part: axis-aligned kinks only, so
    # the grid oracle localizes sharply
    thr3 = cat.support_plus_radial(sets.Box(-np.ones(2), np.ones(2)), cat.PowerAbs(1.0, 2.0))
    for _ in range(4):
        x = rng.uniform(-3, 3, size=2)
        g = float(rng.uniform(0.4, 2.0))
        worst = max(worst, float(np.max(np.abs(thr3.prox(g, x) - grid_prox_2d(thr3, x, g, halfwidth=6.0)))))
    errors["thresholding"] = worst

    return errors


def catalog_zoo() -> list:
    """One ProxFn instance per scalar kind and per calculus constructor, used
    by the firm-nonexpansiveness and certificate sweeps."""
    rng = np.random.default_rng(123)
    zoo = []
    for name in KIND_NAMES:
        kind, _, _, _ = draw_case(name, rng)
        zoo.append(cat.separable(kind, dim=2))
    box = sets.Box(-np.ones(2), np.ones(2))
    ball = sets.Ball(np.array([0.2, -0.1]), 1.5)
    abs2 = cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=2)
    zoo += [
        cat.translated(abs2, np.array([0.4, -1.1])),
        cat.arg_scaled(abs2, -1.7),
        cat.reflected(cat.separable(cat.LinearNonneg(0.8), dim=2)),
        cat.quad_perturbed(abs2, alpha=0.7, u=np.array([0.3, -0.2]), offset=0.5),
        cat.conjugate(sets.indicator(box), value_fn=box.support),
        cat.conjugate(abs2, value_fn=lambda x: 0.0 if np.max(np.abs(x)) <= 1.0 + 1e-12 else np.inf),
        cat.moreau_envelope(abs2),
        cat.moreau_complement(cat.separable(cat.PowerAbs(0.5, 2.0), dim=2)),
        cat.squared_distance(sets.indicator(ball)),
        cat.basis_separable([cat.IntervalSupport(-1.0, 1.0), cat.Interval(-0.5, 2.0)], _rotation(0.61)),
        cat.tight_frame_compose(abs2, matrix_map(math.sqrt(2.0) * _rotation(0.37), tight_frame_nu=2.0)),
        cat.quadratic(matrix_map(rng.standard_normal((3, 2))), rng.standard_normal(3), weight=1.2),
        cat.quadratic_deviation(np.array([0.5, -0.25]), weight=2.0),
        cat.scaled_distance(ball, weight=0.9),
        cat.distance_penalty(ball, cat.Huber(1.0, 1.0)),
        cat.support_function(box),
        cat.support_plus_radial(sets.point(np.zeros(2)), cat.IntervalSupport(-1.3, 1.3)),
        cat.stacked([cat.separable(cat.IntervalSupport(-1.0, 1.0), dim=1), sets.indicator(sets.Box([0.0], [1.0]))]),
        sets.indicator(box),
        sets.indicator(ball),
        sets.indicator(sets.Halfspace(np.array([1.0, 1.0]), 0.5)),
        sets.indicator(sets.Hyperplane(np.array([1.0, -2.0]), 1.0)),
        sets.indicator(sets.AffineSubspace(np.array([[1.0, 1.0]]), np.array([1.0]))),
        sets.indicator(sets.orthant(2)),
        cat.zero_fn(2),
    ]
    return zoo


def dense_pairwise_tv(n: int, omega: float, offset: int):
    """omega * sum of |x_{k+1} - x_k| over disjoint pairs starting at offset,
    through ``basis_separable`` in a dense orthonormal basis of pair means and
    pair gaps (with the unpaired coordinates as free directions)."""
    B = np.zeros((n, n))
    kinds = []
    col = 0
    used = set()
    s = 1.0 / np.sqrt(2.0)
    a = np.sqrt(2.0) * omega
    i = offset
    while i + 1 < n:
        B[i, col] = s
        B[i + 1, col] = s
        kinds.append(cat.Interval())  # mean direction: free
        col += 1
        B[i, col] = -s
        B[i + 1, col] = s
        kinds.append(cat.IntervalSupport(-a, a))  # gap direction: omega*|gap|
        col += 1
        used.update((i, i + 1))
        i += 2
    for j in range(n):
        if j not in used:
            B[j, col] = 1.0
            kinds.append(cat.Interval())
            col += 1
    return cat.basis_separable(kinds, B)


def condat_tv1d(y, lam: float) -> np.ndarray:
    """Exact minimizer of lam * sum_k |x_{k+1} - x_k| + (1/2)||x - y||^2.

    L. Condat, "A direct algorithm for 1D total variation denoising", IEEE
    Signal Processing Letters 20(11), 2013.  One forward sweep keeps the
    range [vmin, vmax] of values the current segment may still take and the
    running dual values umin, umax; when the dual leaves [-lam, lam] the
    segment is emitted up to the last point where that bound was active and
    the sweep restarts after it.  Linear time in practice, no linear algebra.
    """
    y = np.asarray(y, dtype=float).tolist()
    n = len(y)
    x = np.empty(n)
    k = k0 = kminus = kplus = 0
    umin, umax = lam, -lam
    vmin, vmax = y[0] - lam, y[0] + lam
    while True:
        while k == n - 1:  # the sweep reached the end: close the open segment
            if umin < 0.0:
                x[k0 : kminus + 1] = vmin
                k = kminus = k0 = kminus + 1
                vmin = y[k0]
                umin = lam
                umax = vmin + lam - vmax
            elif umax > 0.0:
                x[k0 : kplus + 1] = vmax
                k = kplus = k0 = kplus + 1
                vmax = y[k0]
                umax = -lam
                umin = vmax - lam - vmin
            else:
                x[k0 : k + 1] = vmin + umin / (k - k0 + 1)
                return x
        umin += y[k + 1] - vmin
        if umin < -lam:  # a jump down after kminus
            x[k0 : kminus + 1] = vmin
            k = kminus = kplus = k0 = kminus + 1
            vmin, vmax = y[k0], y[k0] + 2.0 * lam
            umin, umax = lam, -lam
            continue
        umax += y[k + 1] - vmax
        if umax > lam:  # a jump up after kplus
            x[k0 : kplus + 1] = vmax
            k = kminus = kplus = k0 = kplus + 1
            vmin, vmax = y[k0] - 2.0 * lam, y[k0]
            umin, umax = lam, -lam
            continue
        k += 1
        if umin >= lam:
            kminus = k
            vmin += (umin - lam) / (k - k0 + 1)
            umin = lam
        if umax <= -lam:
            kplus = k
            vmax += (umax + lam) / (k - k0 + 1)
            umax = -lam
