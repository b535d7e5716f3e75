"""Timing machinery shared by every workload.

Every timed call is bracketed by a fixed reference computation that never
touches proxsplit.  A call's wall time is divided by the mean of the two
reference times around it and multiplied by ``REF_NOMINAL_S``, so a reported
time stays in seconds but at a fixed nominal machine speed: when the host
slows down for a few seconds, the reference slows down with it and the ratio
holds.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

import numpy as np

# Median wall time of one ``reference()`` call on the machine the figures in
# README.md were taken on (2 vCPU, Python 3.11, numpy 2.4 with OpenBLAS).
REF_NOMINAL_S = 0.0030

_REF_PY_STEPS = 12000
_REF_NP_STEPS = 48


def _reference_state():
    rng = np.random.default_rng(12345)
    M = rng.standard_normal((96, 96)) / 10.0
    v = rng.standard_normal(96)
    return M, v


_REF_M, _REF_V = _reference_state()


def reference() -> float:
    """A fixed mix of interpreter arithmetic and small numpy kernels, chosen to
    resemble the per-iteration work of the toolkit (Python loops over floats
    plus dense matvecs)."""
    acc = 0.0
    x = 0.5
    for i in range(_REF_PY_STEPS):
        x = math.sqrt(x * x + 1.0) - 0.999 * x
        acc += x if i % 3 else -x
    v = _REF_V
    for _ in range(_REF_NP_STEPS):
        v = np.tanh(_REF_M @ v)
        acc += float(np.linalg.norm(v))
    return acc


class Clock:
    """Times calls between reference brackets and keeps every reference time.

    The reference after one call is reused as the reference before the next,
    so a sequence of k calls costs k + 1 reference computations.
    """

    def __init__(self):
        self.ref_times: list[float] = []
        self._last_ref = self._time_reference()

    def _time_reference(self) -> float:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.ref_times.append(dt)
        return dt

    def time(self, fn):
        """Run ``fn()``; return (result, normalised seconds, raw seconds)."""
        before = self._last_ref
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        after = self._time_reference()
        self._last_ref = after
        return out, raw * REF_NOMINAL_S / (0.5 * (before + after)), raw

    def speed_factor(self) -> float:
        """REF_NOMINAL_S over the median reference time seen so far."""
        return REF_NOMINAL_S / statistics.median(self.ref_times)


def _same(a, b) -> bool:
    """Exact equality of two case outputs (arrays compared elementwise)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _deterministic(out):
    """The part of a case output that must repeat exactly across rounds: a
    tuple's first four fields (cli_table's fifth, the trace records, holds
    wall-clock times), or the whole output."""
    return out[:4] if isinstance(out, tuple) else out


def measure(wl, inputs, objs, clock, seconds: float, min_rounds: int = 3):
    """Time whole rounds of every case until ``seconds`` have passed.

    Returns per-case normalised and raw times, the last round's outputs, the
    number of rounds and any determinism failures.
    """
    case_list = wl.cases(inputs, objs)
    times = {name: [] for name, _ in case_list}
    raw = {name: [] for name, _ in case_list}
    first, last = {}, {}
    failures = []
    rounds = 0
    start = time.perf_counter()
    # stop before a round that would end past the deadline, judged by the
    # mean round so far, so a run lasts about ``seconds``
    while rounds < min_rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for name, fn in case_list:
            out, t_norm, t_raw = clock.time(fn)
            times[name].append(t_norm)
            raw[name].append(t_raw)
            last[name] = out
            if rounds == 0:
                first[name] = _deterministic(out)
            elif not _same(first[name], _deterministic(out)):
                failures.append(f"{name}: output of round {rounds + 1} differs from round 1")
        rounds += 1
    return times, raw, last, rounds, failures


def end_to_end(wl, times, last) -> dict:
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    per_unit = [medians[name] / wl.work(last[name]) for name in medians]
    return {
        "solve_s": sum(medians.values()),
        "solve_ms.gmean": 1e3 * gmean(medians.values()),
        "iter_us.gmean": 1e6 * gmean(per_unit),
    }


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
