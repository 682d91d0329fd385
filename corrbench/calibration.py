"""Host-speed calibration: a fixed kernel timed next to every timed step.

The benchmark runs on a shared VM whose speed drifts with the load of its
host by up to 1.5x over minutes, in wall time and in CPU time alike.  A
run's raw times follow that drift more than they follow the program.  So
the benchmark times this kernel, which uses no corrtomo code, right before
and right after every round and every set-up probe, and reports times in
*reference seconds*: the measured seconds scaled by
``REFERENCE_S / kernel time``, the mean of the two kernel times around the
step.  A change to corrtomo moves the step's time and leaves the kernel
alone, so it moves the reported time by the same factor; a change of host
speed moves both and cancels.

The kernel mixes what corrtomo spends its time on: interpreted arithmetic,
a walk over a long list of small Python objects, dispatch of many small
NumPy operations, a batched ``einsum`` over the environment axis, small
LAPACK SVDs and a pass over an array larger than the core's caches.  Its
data take about 12 MB, which ``peak_rss_mb`` includes.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time, in seconds, at the reference host speed (the median on the
#: 2-core VM the README's figures come from).  Any fixed value would do: it
#: sets the scale of every reported time and is the same on every commit.
REFERENCE_S = 0.17

_BATCH = np.full((2001, 4, 4), 0.25)
_SQUARE = np.random.default_rng(0).standard_normal((64, 64))
_SMALL = np.eye(4)
_LONG = np.random.default_rng(1).standard_normal(500_000)


class _Record:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value


# records in shuffled order, so that walking them misses the caches like a
# long list of measurement records does
_RECORDS = [_Record(float(i)) for i in np.random.default_rng(2).permutation(100_000)]


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    total = 0.0
    for _ in range(3):
        for record in _RECORDS:
            total += record.value
    x = _SMALL
    for _ in range(20_000):
        x = _SMALL @ x
    v = np.ones((2001, 4))
    for _ in range(600):
        v = np.einsum("mij,mj->mi", _BATCH, v)
    for _ in range(30):
        np.linalg.svd(_SQUARE)
    for _ in range(6):
        np.sort(_LONG)
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Factor from measured seconds to reference seconds, for a step between two kernel passes."""
    return REFERENCE_S / (0.5 * (before + after))
