"""Machine-speed calibration for the benchmark's times.

On a shared host the same Python code runs up to twice as fast or slow
from one minute to the next, as other tenants load the machine.  A run
therefore times a fixed pure-Python kernel (dict and integer work, like the
package's polynomial arithmetic, but independent of it) right before every
measurement (an input, a set-up, a start-up process), and scales each
measured time by REFERENCE_S over the kernel time around it.  The
benchmark process and its children are pinned to one CPU, so the kernel
runs where the measured work runs.  The reported times are
milliseconds at the speed at which the kernel takes REFERENCE_S; a slower
program still reads slower, a busier host does not.  Raw times are kept in
the result file next to them.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

#: Kernel time on an idle 2-core Intel Xeon host with Python 3.11.
REFERENCE_S = 0.0012

_TERMS = {e: (e * 7) % 13 - 6 for e in range(-12, 12)}


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel.

    The garbage collector is off meanwhile, so a collection of the garbage
    the measured work left behind does not count as machine speed.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(16):
            out: dict[int, int] = {}
            for e1, c1 in _TERMS.items():
                for e2, c2 in _TERMS.items():
                    e = e1 + e2
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


def scale(kernels: list[float]) -> list[float]:
    """Per-measurement factors from kernel times taken before every
    measurement and once after the last: REFERENCE_S over the median of the
    two kernels that bracket the measurement and the one on each side of
    them.  This is the only scaling rule; every reported time uses it."""
    return [REFERENCE_S / statistics.median(kernels[max(0, i - 1):i + 3])
            for i in range(len(kernels) - 1)]


def measure(fn, repeats: int) -> tuple[list[float], list[float]]:
    """(scaled, raw) seconds of `repeats` calls of `fn`, which returns the
    seconds it measured; a kernel runs before each call and after the last."""
    kernels, raw = [], []
    for _ in range(repeats):
        kernels.append(kernel_seconds())
        raw.append(fn())
    kernels.append(kernel_seconds())
    return [t * f for t, f in zip(raw, scale(kernels))], raw


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
