"""Benchmark entry point.

    python3 perfbench/run.py --workload lasso --seed 1 --seconds 25 --trace 0

Runs one workload in this process against the proxsplit sources in ``src/``
of the checkout it sits in, checks every output against computations made
apart from the package, and prints one JSON object as the last line of
standard output.  With ``--trace 0`` it reports the end-to-end metrics and
leaves the package untouched; with ``--trace 1`` it wraps the package's
layers (see tracing.py) and reports the per-layer metrics instead.
"""

from __future__ import annotations

import os

# one BLAS thread: all load comes from this single process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = ("lasso", "tv1d", "prox_catalog", "cli_table")
UNITS = {"setup_s": "s", "solve_s": "s", "solve_ms.gmean": "ms", "iter_us.gmean": "us", "peak_rss_mb": "MB"}
SETUP_REPEATS = 15


def _load_package():
    """Import proxsplit from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "proxsplit", "__init__.py")):
        raise SystemExit(f"error: no proxsplit sources under {SRC}")
    sys.path.insert(0, SRC)
    import proxsplit

    if os.path.dirname(os.path.dirname(os.path.abspath(proxsplit.__file__))) != SRC:
        raise SystemExit(f"error: imported proxsplit from {proxsplit.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_package()
    warnings.simplefilter("ignore", RuntimeWarning)  # operator_norm's non-convergence notice
    wl = importlib.import_module(args.workload)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = wl.make_inputs(args.seed, workdir) if args.workload == "cli_table" else wl.make_inputs(args.seed)
        clock = harness.Clock()
        if args.trace:
            import tracing

            dump_stem = os.path.join(OUT, f"trace-{args.workload}-{args.seed}")
            result = tracing.traced_run(wl, args.workload, inputs, clock, args.seconds, dump_stem)
        else:
            result = untraced_run(wl, inputs, clock, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def untraced_run(wl, inputs, clock, args) -> dict:
    objs = wl.setup(inputs)  # also warms imports and first-call paths
    setup_times = [clock.time(lambda: wl.setup(inputs))[1] for _ in range(SETUP_REPEATS)]
    times, raw, last, rounds, failures = harness.measure(wl, inputs, objs, clock, args.seconds)
    failures += wl.check(inputs, last)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    for name in times:
        print(
            f"{name:48s} rounds={len(times[name]):3d} work={wl.work(last[name]):6d} "
            f"median={statistics.median(times[name]):.4f}s raw={statistics.median(raw[name]):.4f}s",
            file=sys.stderr,
        )
    print(f"rounds={rounds} speed_factor={clock.speed_factor():.3f}", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setup_times),
        **harness.end_to_end(wl, times, last),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    return {
        "correct": not failures,
        "attempted": rounds * len(times),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
