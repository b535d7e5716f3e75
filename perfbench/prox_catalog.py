"""prox_catalog: every scalar kind through ``separable`` on a long vector, and
the calculus combinators built and applied on shorter ones.

Nearly all of the time is in ``scalar.solve_monotone``, ``lambert_w_exp``
and the per-coordinate loops; none is in a solver or in dense linear algebra
beyond the combinators' small matvecs.  The unit of work is one prox call.
"""

from __future__ import annotations

import numpy as np

import oracles
from proxsplit import catalog, matrix_map

LENGTH = 1000  # coordinates per scalar-kind vector
SPAN = 6.0  # inputs are uniform on [-SPAN, SPAN]
GAMMAS = (0.25, 1.0, 4.0)
SAMPLES = 12  # coordinates per (kind, gamma) checked by direct minimisation
COMB_DIM = 128
COMB_BATCH = 8  # input vectors per combinator case
FRAME_ROWS, FRAME_NU = 64, 2.0
QUAD_ROWS = 60
PROX_TOL = 1e-6
FIRM_TOL = 1e-9
IDENTITY_TOL = 1e-9
KINDS = tuple(oracles.SCALAR_CASES)
COMBINATORS = ("basis_separable", "conjugate", "moreau_envelope", "tight_frame_compose", "quadratic", "stacked")

# the orthonormal-basis case cycles through three kinds with closed-form proxes
_BASIS_KINDS = (("interval_support", {"lo": -0.7, "hi": 0.7}), ("interval", {"lo": -1.0, "hi": 2.0}), ("huber", {"kappa": 0.8, "omega": 1.1}))


def _kind(name: str, params: dict):
    params = dict(params)
    if "psi" in params:
        psi_name, psi_params = params["psi"]
        params["psi"] = catalog.SCALAR_KINDS[psi_name](**psi_params)
    return catalog.SCALAR_KINDS[name](**params)


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    d = COMB_DIM
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    frame_basis, _ = np.linalg.qr(rng.standard_normal((d, FRAME_ROWS)))
    return {
        "t": rng.uniform(-SPAN, SPAN, LENGTH),
        "X": rng.uniform(-SPAN, SPAN, (COMB_BATCH, d)),
        "Q": Q,
        "w": rng.uniform(0.5, 1.5, d),
        "L": np.sqrt(FRAME_NU) * frame_basis.T,  # L L^T = nu I
        "A": rng.standard_normal((QUAD_ROWS, d)) / np.sqrt(QUAD_ROWS),
        "yq": rng.standard_normal(QUAD_ROWS),
        "blocks": (d // 4, d // 2, d - d // 4 - d // 2),
    }


def setup(inp) -> dict:
    d = COMB_DIM
    objs = {name: catalog.separable(_kind(name, params), dim=LENGTH) for name, (params, _, _) in oracles.SCALAR_CASES.items()}
    w = inp["w"]
    basis_kinds = [_kind(*_BASIS_KINDS[k % 3]) for k in range(d)]
    b1, b2, b3 = inp["blocks"]
    objs["basis_separable"] = catalog.basis_separable(basis_kinds, inp["Q"])
    objs["conjugate"] = catalog.conjugate(catalog.weighted_l1(w))
    objs["moreau_envelope"] = catalog.moreau_envelope(catalog.weighted_l1(w))
    objs["tight_frame_compose"] = catalog.tight_frame_compose(
        catalog.weighted_l1(w[:FRAME_ROWS]), matrix_map(inp["L"], tight_frame_nu=FRAME_NU)
    )
    objs["quadratic"] = catalog.quadratic(matrix_map(inp["A"]), inp["yq"], 1.0)
    objs["stacked"] = catalog.stacked(
        [
            catalog.separable(_kind("interval", {"lo": -1.0, "hi": 2.0}), dim=b1),
            catalog.weighted_l1(w[b1 : b1 + b2]),
            catalog.separable(_kind("huber", {"kappa": 0.8, "omega": 1.1}), dim=b3),
        ]
    )
    return objs


def cases(inp, objs) -> list:
    t, X = inp["t"], inp["X"]
    out = [(name, (lambda f=objs[name]: [f.prox(g, t) for g in GAMMAS])) for name in KINDS]
    out += [(name, (lambda f=objs[name]: [f.prox(g, x) for g in GAMMAS for x in X])) for name in COMBINATORS]
    return out


def work(out) -> int:
    return len(out)


def _basis_reference(x, Q, gamma):
    c = Q.T @ x
    p = np.empty_like(c)
    for k in range(3):
        name, params = _BASIS_KINDS[k]
        ck = c[k::3]
        if name == "interval_support":
            p[k::3] = oracles.soft(ck, gamma * params["hi"])
        elif name == "interval":
            p[k::3] = np.clip(ck, params["lo"], params["hi"])
        else:
            p[k::3] = oracles.huber_prox(ck, params["kappa"], params["omega"], gamma)
    return Q @ p


def _combinator_reference(name, inp, x, gamma):
    w, nu = inp["w"], FRAME_NU
    if name == "basis_separable":
        return _basis_reference(x, inp["Q"], gamma)
    if name == "conjugate":
        # Moreau decomposition: prox_{g f*}(x) = x - g * prox_{f/g}(x/g)
        return x - gamma * oracles.soft(x / gamma, w / gamma)
    if name == "moreau_envelope":
        return (x + gamma * oracles.soft(x, (1.0 + gamma) * w)) / (1.0 + gamma)
    if name == "tight_frame_compose":
        L = inp["L"]
        Lx = L @ x
        return x + L.T @ (oracles.soft(Lx, gamma * nu * w[:FRAME_ROWS]) - Lx) / nu
    if name == "stacked":
        b1, b2, _ = inp["blocks"]
        return np.concatenate(
            [
                np.clip(x[:b1], -1.0, 2.0),
                oracles.soft(x[b1 : b1 + b2], gamma * w[b1 : b1 + b2]),
                oracles.huber_prox(x[b1 + b2 :], 0.8, 1.1, gamma),
            ]
        )
    raise KeyError(name)


def check(inp, outputs: dict) -> list:
    failures = []
    t = inp["t"]
    picks = np.linspace(0, LENGTH - 1, SAMPLES).astype(int)
    for name in KINDS:
        for gamma, p in zip(GAMMAS, outputs[name]):
            worst = 0.0
            for k in picks:
                ref = oracles.scalar_prox_reference(name, float(t[k]), gamma)
                worst = max(worst, abs(float(p[k]) - ref) / max(1.0, abs(ref)))
            if not worst <= PROX_TOL:
                failures.append(f"{name} gamma={gamma}: off the direct minimiser by {worst:.2e}")
            firm = oracles.firm_nonexpansive_gap(t, p)
            if not firm <= FIRM_TOL:
                failures.append(f"{name} gamma={gamma}: firm nonexpansiveness violated by {firm:.2e}")
    X = inp["X"]
    for name in COMBINATORS:
        results = iter(outputs[name])
        worst = 0.0
        for gamma in GAMMAS:
            for x in X:
                p = next(results)
                if name == "quadratic":
                    A, yq = inp["A"], inp["yq"]
                    err = float(np.linalg.norm(p - x + gamma * A.T @ (A @ p - yq)))
                else:
                    err = float(np.max(np.abs(p - _combinator_reference(name, inp, x, gamma))))
                worst = max(worst, err / max(1.0, float(np.linalg.norm(x))))
        if not worst <= IDENTITY_TOL:
            failures.append(f"{name}: calculus identity violated by {worst:.2e}")
    return failures
