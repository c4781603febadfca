"""Host-speed calibration: a fixed reference kernel timed between requests.

On a shared virtual machine the same request can take a third more or less
CPU time from one minute to the next, as other tenants load the host.  A
round therefore times a fixed pure-Python kernel (tuple keys, dict updates,
integer arithmetic, like the package's exponent-sum convolutions) every
CAL_EVERY_S of request time, and rescales each request's CPU time by
REF_KERNEL_S over the mean kernel time of the calibrations around it (see
``scales``).  The host's speed switches within tens of milliseconds, so
calibrations are frequent and each is a single short kernel call; on the
tuning host the ratio of a fixed request's time to the kernel's varied
four times less than either time alone.  Reported times are thus CPU
seconds at the reference speed: the speed at which the kernel takes
REF_KERNEL_S.  The kernel lives in the benchmark, so only a change to the
program moves the rescaled times.

The garbage collector is off while the kernel runs, so objects the program
keeps alive never add collection work to the kernel.
"""
from __future__ import annotations

import bisect
import gc
import itertools
import statistics
import time

#: Typical CPU seconds of one warm kernel() call on an Intel Xeon (Sapphire
#: Rapids, 2 vCPU under KVM) with Python 3.11, the host the benchmark was
#: tuned on.  It only fixes the unit of the rescaled times.
REF_KERNEL_S = 0.7e-3
#: Request CPU time between two calibrations.
CAL_EVERY_S = 0.025


def kernel() -> int:
    acc: dict = {}
    for i in range(48):
        a = (i, i + 1, 2 * i)
        for j in range(48):
            key = (a[0] + j, a[1] - j, a[2] ^ j)
            acc[key] = acc.get(key, 0) + i * j
    return len(acc)


def sample(reps: int = 1) -> float:
    """Median CPU seconds of ``reps`` kernel calls, with the GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = time.process_time()
            kernel()
            times.append(time.process_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scales(cals: list[float], cal_at: list[float], spans) -> list[float]:
    """Rescale factor of each request from the calibrations near it.

    ``cal_at[j]`` is the request CPU time done before calibration j (non-
    decreasing); ``spans`` gives each request's (start, duration) on the
    same axis.  A request's factor uses the mean kernel time of the
    calibrations within max(duration, CAL_EVERY_S) of either of its ends,
    which always includes the two on either side of it: a short request
    gets the speed of its moment, and a long one, whose own time already
    averages the host's fast swings, an average over a comparable stretch.
    """
    prefix = list(itertools.accumulate(cals, initial=0.0))
    factors = []
    for start, duration in spans:
        reach = max(duration, CAL_EVERY_S)
        lo = bisect.bisect_left(cal_at, start - reach)
        hi = bisect.bisect_right(cal_at, start + duration + reach)
        factors.append(REF_KERNEL_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return factors
