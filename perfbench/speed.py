"""A reference kernel that gauges how fast the machine runs right now.

On a shared host the speed of the same code drifts by 10-30% over minutes,
as other tenants load the cores and caches.  The benchmark times this
kernel before and after every measured interval and scales the interval
to the speed at which the kernel takes ``REFERENCE_S``: a normalized time
is what the interval would have taken at that speed.  The kernel mixes
what the library does — complex numpy arithmetic on 2^16-point arrays and
interpreted Python loops — so that it slows down with the library.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one kernel call on the 2-vCPU Xeon machine whose figures
# perfbench/README.md quotes.  A constant: changing it rescales every time.
REFERENCE_S = 0.025

_Z = np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
_PEAKS = np.exp(1j * np.array([0.3, 1.1, 2.5, 4.0]))
# Preallocated work arrays: the kernel allocates nothing, so the state of
# the allocator, which the measured code changes, does not change its time.
_F = np.empty_like(_Z)
_NUM = np.empty_like(_Z)
_DEN = np.empty_like(_Z)
_ABS = np.empty(_Z.shape)


def kernel() -> float:
    acc = 0.0
    for _ in range(6):
        _F.fill(0.0)
        for a in _PEAKS:
            np.add(a, _Z, out=_NUM)
            np.subtract(a, _Z, out=_DEN)
            np.divide(_NUM, _DEN, out=_NUM)
            np.add(_F, _NUM, out=_F)
        np.add(_F, 1.0, out=_NUM)
        np.divide(1.0, _NUM, out=_NUM)
        np.subtract(1.0, _NUM, out=_NUM)
        np.abs(_NUM, out=_ABS)
        acc += float(_ABS.max())
    for i in range(60000):
        acc += (i * 0.5) % 7.0
    return acc


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Interval:
    """Context manager: samples the kernel on entry and on exit.  After the
    block, ``factor`` (REFERENCE_S over the mean of the two samples) turns
    raw seconds measured inside the block into normalized seconds."""

    factor = float("nan")

    def __enter__(self):
        self._before = sample()
        return self

    def __exit__(self, *exc):
        self.factor = REFERENCE_S / (0.5 * (self._before + sample()))
        return False
