"""The speed of the host at the moment, from a fixed reference computation.

A shared host can change speed by a quarter and more from one minute to
the next, for all code though not by exactly the same factor (CPU time
tracks wall time).  Timing this computation, which is part of the
benchmark and not of charmax, after each operation of a run gives how
much slower than the reference speed the host ran: the median of
``chunk_s()`` over the run divided by ``REFERENCE_S``.

The computation mixes what charmax spends its time on: scalar expression
evaluation in Python (dict lookups, calls and float arithmetic) and
elementwise numpy arithmetic on a million floats (half a 128^3 grid).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median chunk_s() of a 2-core x86-64 VM (the reference speed)
REFERENCE_S = 0.0055
REPEATS = 3
_SCALAR_STEPS = 15000
_GRID = np.linspace(0.0, 1.0, 1 << 20)


def _node(env: dict) -> float:
    return env["u"] * (env["x"] - env["u"] * env["t"] + 1.0) - 1.0


def _once() -> float:
    env = {"t": 0.0, "x": 0.7, "u": 1.1}
    acc = 0.0
    for i in range(_SCALAR_STEPS):
        env["t"] = i * 1e-4
        acc += _node(env)
    grid = _GRID
    acc += float((grid * (grid - 0.5) + 1.0).sum())
    return acc


def chunk_s() -> float:
    """Median wall time of REPEATS runs of the reference computation."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _once()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
