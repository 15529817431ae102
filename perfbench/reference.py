"""Machine-speed reference for normalising times.

The machine this benchmark was built on changes speed by a factor of
two within seconds while the process stays on the CPU (CPU time tracks
wall time). A fixed computation that does not touch homcrb, run right
before and right after each timed call for about as long as the call
itself, slows down with it. A call's normalised time is its wall time
scaled by UNIT_NOMINAL_S / (mean time of one reference unit around it):
the time the call would take on a machine where one unit takes
UNIT_NOMINAL_S.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import expm

UNIT_NOMINAL_S = 0.003

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
_M = _A @ _A.T + np.eye(3)
_X = np.array([[0.1, 0.2, 0.0], [0.0, -0.1, 0.3], [0.2, 0.0, 0.05]])
_P = np.random.default_rng(0).standard_normal((48, 2304))
_V = np.ones(2304)


def _unit() -> None:
    """The mix of the package's inner loops: small dense numpy calls
    driven from a Python loop, a 3x3 scipy expm, and a projection the
    size of a 16-agent product group's vee map."""
    x = np.ones(3)
    for _ in range(100):
        x = np.linalg.solve(_M @ np.eye(3), x + 1.0)
        float(np.linalg.norm(x))
    for _ in range(20):
        expm(_X)
        float((_P @ _V)[0])


def unit_seconds(duration: float) -> float:
    """Mean seconds per reference unit, over at least `duration` seconds
    and at least two units."""
    n, start = 0, time.perf_counter()
    while True:
        _unit()
        n += 1
        elapsed = time.perf_counter() - start
        if n >= 2 and elapsed >= duration:
            return elapsed / n


def normalise(elapsed: float, unit_before: float, unit_after: float) -> float:
    return elapsed * UNIT_NOMINAL_S / (0.5 * (unit_before + unit_after))
