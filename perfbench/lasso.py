"""lasso: six splitting solvers on Gaussian lasso instances at desk scale.

Per iteration the time goes to ``catalog.quadratic``'s dense solve
(douglas_rachford, ppxa), to sdmm's linear solve, and to the per-coordinate
loop of ``catalog.separable`` plus the trace objective (forward-backward
family, fista).  No root-solved scalar kind is used.
"""

from __future__ import annotations

import itertools

import numpy as np

import oracles
from proxsplit import problems, solvers

INSTANCES = 2
ROWS, COLS = 100, 200
SPARSITY = 0.1
NOISE = 0.05
WEIGHT_SHARE = 0.1  # w_k = 0.1 * ||A^T y||_inf for every k
BASE_SEED = 2009
TOL = 1e-12
SOLVERS = ("forward_backward", "forward_backward_const", "fista", "douglas_rachford", "ppxa", "sdmm")
KKT_TOL = 1e-8
AGREE_TOL = 1e-5


def base_instances() -> list:
    """Gaussian lasso instances drawn once from a fixed generator."""
    rng = np.random.default_rng(BASE_SEED)
    out = []
    for _ in range(INSTANCES):
        A = rng.standard_normal((ROWS, COLS)) / np.sqrt(ROWS)
        x0 = np.zeros(COLS)
        support = rng.choice(COLS, int(SPARSITY * COLS), replace=False)
        x0[support] = 2.0 * rng.standard_normal(support.size)
        y = A @ x0 + NOISE * rng.standard_normal(ROWS)
        w = np.full(COLS, WEIGHT_SHARE * float(np.max(np.abs(A.T @ y))))
        out.append((A, y, w))
    return out


def make_inputs(seed: int) -> list:
    """The base instances moved by a seeded rotation of the rows and a signed
    permutation of the columns.

    (QAP, Qy) with Q orthogonal and P a signed permutation is the same lasso
    up to relabelling the unknowns, so every seed gives different matrices of
    the same difficulty: iteration counts, and with them solve times, do not
    swing with the seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    for A, y, w in base_instances():
        Q, _ = np.linalg.qr(rng.standard_normal((ROWS, ROWS)))
        perm = rng.permutation(COLS)
        signs = rng.choice([-1.0, 1.0], COLS)
        out.append((Q @ A[:, perm] * signs, Q @ y, w[perm]))
    return out


def setup(inputs) -> list:
    return [problems.build_lasso(A, y, w) for A, y, w in inputs]


def cases(inputs, objs) -> list:
    stop = solvers.StoppingRule(tol=TOL)

    def solve(inst, tag):
        res = problems.run_instance(inst, tag, stop=stop)
        return res.final_x, res.iterations, res.converged

    return [
        (f"{i}/{tag}", (lambda inst=inst, tag=tag: solve(inst, tag)))
        for i, inst in enumerate(objs)
        for tag in SOLVERS
    ]


def work(out) -> int:
    return out[1]


def check(inputs, outputs: dict) -> list:
    failures = []
    for i, (A, y, w) in enumerate(inputs):
        xs = {}
        for tag in SOLVERS:
            x, iters, converged = outputs[f"{i}/{tag}"]
            if not converged:
                failures.append(f"{i}/{tag}: not converged after {iters} iterations")
            kkt = oracles.lasso_kkt(A, y, w, x)
            if not kkt <= KKT_TOL:
                failures.append(f"{i}/{tag}: KKT residual {kkt:.2e} > {KKT_TOL:.0e}")
            xs[tag] = x
        for a, b in itertools.combinations(SOLVERS, 2):
            gap = float(np.linalg.norm(xs[a] - xs[b]))
            if not gap <= AGREE_TOL:
                failures.append(f"{i}: {a} and {b} differ by {gap:.2e} > {AGREE_TOL:.0e}")
    return failures
