"""Machine-speed calibration for timings taken on shared machines.

On a shared 2-vCPU VM the same pass ran 20-40% slower for minutes at a
time, as other tenants took CPU time. A fixed loop of the same kinds of
work as claimtree's hot paths slows down with it: timed next to
coordinate descent, tree growth, CSV I/O and prediction, the medians of ten
calibrated timings spread by 3-5% where the raw ones spread by 18-24%.

The benchmark times this loop next to every timed step and reports
``raw seconds * REFERENCE_S / loop seconds``: seconds at the machine speed
at which the loop takes REFERENCE_S. Raw times are kept in each run's
record.
"""

import time

import numpy as np

# About the time of calibrate() on an idle 2-vCPU Intel Xeon VM, Python
# 3.11.7, numpy 2.4.6 with OpenBLAS pinned to one thread. Being a constant,
# it only sets the unit: changing it rescales every reported time alike.
REFERENCE_S = 0.0140

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((200, 60))
_r = _rng.standard_normal(200)
_column = _rng.standard_normal(1000)
_cells = _rng.standard_normal(3000)


def calibrate() -> float:
    """Seconds the fixed reference loop takes right now.

    Its parts stand for coordinate descent (column dot products), split
    search (stable argsort) and CSV text (float repr), plus plain Python
    arithmetic.
    """
    t = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        for j in range(60):
            rho = float(_X[:, j] @ _r)
            acc += rho if rho > 0.1 else -rho
    s = 0
    for i in range(100_000):
        s += i * i
    for _ in range(30):
        np.argsort(_column, kind="stable")
    ",".join(repr(float(v)) for v in _cells)
    return time.perf_counter() - t


def scale(before: float, after: float) -> float:
    """Factor that turns a raw time, taken between two calibrations, into
    reference-speed seconds."""
    return 2 * REFERENCE_S / (before + after)
