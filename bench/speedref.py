"""Machine speed, sampled while a repetition runs, and the clock that
leaves the sampling out.

On a host shared with other guests, the speed of one pure-Python process
swings by up to 1.8 times, within tenths of a second as well as over
minutes: back-to-back repetitions of tensor-cold took 2.3 to 4.4 s within
ten minutes on a 2-vCPU Xeon virtual machine, and medians over 40-second
runs spread by 20% (quartile distance over median) however they were taken.
A run cannot average that out, so the benchmark measures the speed
alongside the work and reports times at one reference speed.

While a repetition runs, a SIGALRM timer interrupts it every ``INTERVAL_S``
to time one reference slice: a fixed Weyl orbit closure written here, in
the same tuple-and-set style as the library's ``weyl_orbit`` but sharing no
code with it, so no change to the library can move it.  The time the slices
take is kept off ``work_clock``.  A sample's speed is ``REF_SLICE_S`` over
its slice time; the samples are evenly spaced in time, so work-clock seconds
times their mean speed are seconds at the reference speed.  Scaled this
way, the loop times of the same repetitions varied by 2 to 4% instead of
20 to 30%.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
# about the slice time on the machine above in its fastest periods; it sets
# the unit of the reported times and nothing else
REF_SLICE_S = 2.4e-4
# an interval is scaled by the samples taken in it and this many on each
# side (60 ms); on equiv-warm, 1 to 6 gave much the same per-operation
# times, all steadier than scaling by the repetition's mean speed
NEIGHBOURS = 3

# the Cartan matrix of A4 by columns, and a regular weight: 120 points
_COLS = ((0, 2), (1, -1)), ((0, -1), (1, 2), (2, -1)), ((1, -1), (2, 2), (3, -1)), ((2, -1), (3, 2))
_WEIGHT = (2, 1, 1, 3)

_slices_s = 0.0
# work-clock time and speed of each sample, in time order
_times: list[float] = []
_speeds: list[float] = []
_busy = False


def _orbit_size(w) -> int:
    seen = {w}
    queue = [w]
    while queue:
        v = queue.pop()
        for i, col in enumerate(_COLS):
            c = v[i]
            if c == 0:
                continue
            out = list(v)
            for j, a in col:
                out[j] -= c * a
            t = tuple(out)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen)


def _sample(*_signal) -> None:
    global _slices_s, _busy
    # a handler can be entered again if the process stalls for a whole
    # interval inside it; that sample is dropped
    if _busy:
        return
    _busy = True
    # a collection the slice's allocations would start belongs to the
    # program: with the collector off, the slice frees all it allocated and
    # leaves the program's collection schedule as it found it
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    _orbit_size(_WEIGHT)
    dt = time.perf_counter() - t0
    if collecting:
        gc.enable()
    _slices_s += dt
    _times.append(t0 - _slices_s + dt)
    _speeds.append(REF_SLICE_S / dt)
    _busy = False


def work_clock() -> float:
    """``time.perf_counter()`` less the time the reference slices took."""
    return time.perf_counter() - _slices_s


def start() -> None:
    """Take one sample now and one every ``INTERVAL_S`` until ``stop``."""
    signal.signal(signal.SIGALRM, _sample)
    _sample()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> tuple[float, int]:
    """Stop sampling; the mean speed relative to the reference and the
    number of samples it rests on."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    _sample()
    return statistics.fmean(_speeds), len(_speeds)


def local_speed(t0: float, t1: float) -> float:
    """Mean speed of the samples taken between work-clock times ``t0`` and
    ``t1`` and of ``NEIGHBOURS`` more on each side; call after ``stop``."""
    lo = max(0, bisect.bisect_left(_times, t0) - NEIGHBOURS)
    hi = bisect.bisect_right(_times, t1) + NEIGHBOURS
    return statistics.fmean(_speeds[lo:hi])
