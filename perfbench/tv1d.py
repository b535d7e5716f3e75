"""tv1d: 1-D total-variation denoising by dual forward-backward and PPXA.

Exercises the structured operators: ``first_difference`` and the pairwise
bases of ``_pairwise_tv`` stored dense, the power iteration of
``operator_norm`` at build time and inside every dual forward-backward
solve, and the memory those n x n arrays take.
"""

from __future__ import annotations

import numpy as np

import oracles
from proxsplit import problems, solvers

SIGNALS = 4
LENGTH = 120
PIECE_MIN, PIECE_MAX = 4, 8
STEP_MIN, STEP_MAX = 1.0, 2.0
NOISE = 0.1
OMEGA = 1.0
BASE_SEED = 2009
TOL = 1e-10
SOLVERS = ("dual_forward_backward", "ppxa")
CERT_TOL = 1e-7
AGREE_TOL = 1e-5


def piecewise_signal(rng, n: int):
    """Pieces of random length in [PIECE_MIN, PIECE_MAX], each level a random
    step of magnitude in [STEP_MIN, STEP_MAX] up or down from the last, plus
    Gaussian noise."""
    lengths = []
    while sum(lengths) < n:
        lengths.append(int(rng.integers(PIECE_MIN, PIECE_MAX + 1)))
    lengths[-1] -= sum(lengths) - n
    steps = rng.uniform(STEP_MIN, STEP_MAX, len(lengths)) * rng.choice([-1.0, 1.0], len(lengths))
    levels = np.cumsum(steps)
    clean = np.repeat(levels - levels.mean(), lengths)
    return clean + NOISE * rng.standard_normal(n)


def make_inputs(seed: int) -> list:
    """Base signals drawn once from a fixed generator, each reversed and
    negated by seeded coin flips.

    Both moves are symmetries of the TV problem (the solution moves with the
    signal), so seeds change the data but not the iteration counts, which
    swing by +-10% between independently drawn signals of this shape.
    """
    base = np.random.default_rng(BASE_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(SIGNALS):
        r = piecewise_signal(base, LENGTH)
        if rng.random() < 0.5:
            r = r[::-1].copy()
        out.append(r * rng.choice([-1.0, 1.0]))
    return out


def setup(inputs) -> list:
    return [problems.build_tv1d(r, OMEGA) for r in inputs]


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
    for i, r in enumerate(inputs):
        for tag in SOLVERS:
            x, iters, converged = outputs[f"{i}/{tag}"]
            if not converged:
                failures.append(f"{i}/{tag}: not converged after {iters} iterations")
            cert = oracles.tv_certificate(r, OMEGA, x)
            if not cert <= CERT_TOL:
                failures.append(f"{i}/{tag}: dual certificate violated by {cert:.2e} > {CERT_TOL:.0e}")
        gap = float(np.max(np.abs(outputs[f"{i}/{SOLVERS[0]}"][0] - outputs[f"{i}/{SOLVERS[1]}"][0])))
        if not gap <= AGREE_TOL:
            failures.append(f"{i}: the two encodings differ by {gap:.2e} > {AGREE_TOL:.0e}")
    return failures
