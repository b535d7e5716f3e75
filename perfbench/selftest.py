"""Self-tests of the benchmark's output checks and tracer.

    python3 perfbench/selftest.py

Each workload's check must accept the program's real outputs and reject a
deliberately corrupted copy of them; the tracer must catch calls and put
every original function back.  Exits 1 if any test fails.  Takes about half
a minute, most of it one round of every workload.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import cli_table  # noqa: E402
import lasso  # noqa: E402
import oracles  # noqa: E402
import prox_catalog  # noqa: E402
import tracing  # noqa: E402
import tv1d  # noqa: E402
from proxsplit import catalog, core  # noqa: E402

SEED = 1
warnings.simplefilter("ignore", RuntimeWarning)  # operator_norm's non-convergence notice


def one_round(wl, inputs) -> dict:
    objs = wl.setup(inputs)
    return {name: fn() for name, fn in wl.cases(inputs, objs)}


def _replace(out: tuple, index: int, value) -> tuple:
    return out[:index] + (value,) + out[index + 1 :]


def test_lasso():
    inputs = lasso.make_inputs(SEED)
    outputs = one_round(lasso, inputs)
    assert lasso.check(inputs, outputs) == [], lasso.check(inputs, outputs)
    name = f"0/{lasso.SOLVERS[0]}"
    for k in (0, int(np.argmax(np.abs(outputs[name][0])))):  # a zero and the largest coordinate
        bad = dict(outputs)
        x = outputs[name][0].copy()
        x[k] += 1e-6
        bad[name] = _replace(outputs[name], 0, x)
        assert any("KKT" in msg for msg in lasso.check(inputs, bad)), f"nudged coordinate {k} accepted"
    bad = dict(outputs)
    bad[name] = _replace(outputs[name], 2, False)
    assert lasso.check(inputs, bad), "unconverged run accepted"


def test_inputs_follow_the_seed():
    for wl in (lasso, tv1d, prox_catalog):
        a, b, c = wl.make_inputs(SEED), wl.make_inputs(SEED), wl.make_inputs(SEED + 1)
        first = (lambda inp: inp["t"]) if wl is prox_catalog else (lambda inp: inp[0][0] if wl is lasso else inp[0])
        assert np.array_equal(first(a), first(b)), f"{wl.__name__}: same seed, different inputs"
        assert not np.allclose(first(a), first(c)), f"{wl.__name__}: different seeds, same inputs"


def test_tv1d():
    inputs = tv1d.make_inputs(SEED)
    outputs = one_round(tv1d, inputs)
    assert tv1d.check(inputs, outputs) == [], tv1d.check(inputs, outputs)
    name = f"0/{tv1d.SOLVERS[1]}"
    bad = dict(outputs)
    bad[name] = _replace(outputs[name], 0, inputs[0].copy())  # r itself as the answer
    msgs = tv1d.check(inputs, bad)
    assert any("certificate" in m for m in msgs) and any("differ" in m for m in msgs), msgs
    bad[name] = _replace(outputs[name], 0, outputs[name][0] + 1e-6 * np.sin(np.arange(tv1d.LENGTH)))
    assert any("certificate" in m for m in tv1d.check(inputs, bad)), "perturbed TV solution accepted"


def test_prox_catalog():
    inputs = prox_catalog.make_inputs(SEED)
    outputs = one_round(prox_catalog, inputs)
    assert prox_catalog.check(inputs, outputs) == [], prox_catalog.check(inputs, outputs)
    k = int(np.linspace(0, prox_catalog.LENGTH - 1, prox_catalog.SAMPLES).astype(int)[3])
    for name in prox_catalog.KINDS:
        bad = dict(outputs)
        moved = [p.copy() for p in outputs[name]]
        moved[1][k] += 1e-4
        bad[name] = moved
        assert any(name in m and "minimiser" in m for m in prox_catalog.check(inputs, bad)), f"{name}: moved prox accepted"
    for name in prox_catalog.COMBINATORS:
        bad = dict(outputs)
        moved = [p.copy() for p in outputs[name]]
        moved[-1][0] += 1e-6
        bad[name] = moved
        assert any(name in m for m in prox_catalog.check(inputs, bad)), f"{name}: moved output accepted"


def test_firm_nonexpansiveness_gap():
    t = np.linspace(-3.0, 3.0, 50)
    assert oracles.firm_nonexpansive_gap(t, oracles.soft(t, 0.5)) <= 1e-12
    assert oracles.firm_nonexpansive_gap(t, 1.5 * t) > 1e-3  # expansive map


def test_cli_table():
    workdir = tempfile.mkdtemp(dir=HERE)
    try:
        inputs = cli_table.make_inputs(SEED, workdir)
        outputs = one_round(cli_table, inputs)
        assert cli_table.check(inputs, outputs) == [], cli_table.check(inputs, outputs)
        for name, out in outputs.items():
            bad = dict(outputs)
            # the origin lies outside every feasibility set; elsewhere a shift of 1e-5
            moved = 0.0 * out[0] if name == "feasibility/pocs" else out[0] + 1e-5
            bad[name] = _replace(out, 0, moved)
            assert any(name in m and "residual" in m for m in cli_table.check(inputs, bad)), f"{name}: moved answer accepted"
        name = "feasibility/pocs"
        bad = dict(outputs)
        bad[name] = _replace(outputs[name], 3, 2)
        assert any("exit code 2" in m for m in cli_table.check(inputs, bad)), "exit code 2 accepted"
        bad = dict(outputs)
        records = copy.copy(outputs[name][4])
        records[0] = core.IterationRecord(records[0].iteration, records[0].objective * (1 + 1e-15) + 1e-300, records[0].residual, records[0].elapsed_ns)
        bad[name] = _replace(outputs[name], 4, records)
        assert any("losslessly" in m for m in cli_table.check(inputs, bad)), "trace mismatch accepted"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_tracer_counts_and_restores():
    original = (core.as_vector, catalog.as_vector, core.ProxFn.prox, catalog.separable)
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    try:
        f = catalog.separable(catalog.PowerAbs(1.0, 2.5), dim=4)
        f.prox(1.0, np.arange(4.0))
    finally:
        patches.restore()
    raw = rec.snapshot()
    assert raw["catalog.prox.calls"] == 1 and raw["core.as_vector.calls"] >= 2, raw
    assert raw["scalar.solve_monotone.calls"] == 3 and raw["scalar.solve_monotone.g_evals"] > 3, raw
    assert raw["kind.power_abs.coords"] == 4, raw
    assert (core.as_vector, catalog.as_vector, core.ProxFn.prox, catalog.separable) == original, "wrappers left in place"


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
