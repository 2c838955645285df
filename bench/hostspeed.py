"""Host speed, measured inside the worker while it runs the workload.

The shared build host changes speed by 25-40% from second to second and
for minutes at a time, and CPU time moves with wall time, so no run is long
enough to average that out.  The worker therefore times a fixed probe,
code of the benchmark's own that no change to normsums can touch, every
PROBE_EVERY_S between ops, and scales each op's time by NOMINAL_PROBE_S
over the median time of the probes taken around that op.  A time so
scaled is the time the op would have taken on a host where the probe
takes NOMINAL_PROBE_S; a change that makes normsums faster or slower moves
it as much as it moves the raw time.  Probe time is kept out of every op
and round time.

The probe does what the workloads spend their time on: a Python loop over
a quadratic form that keeps the best witness per value in a dict (as
repsearch.enumerate_norm_values does), then shifts and ors over a growing
big-int bitset (as the layered reachability tables do).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import statistics
import threading
import time

# the probe's median time on the 2-CPU build host at its usual speed
NOMINAL_PROBE_S = 4e-4
PROBE_EVERY_S = 0.01
MAX_PROBES_AT_ONCE = 50
# an op is scaled by the probes taken during it or this close to it
WINDOW_S = 0.03
# probes taken right after import, for the set-up time
SETUP_PROBES = 15


def kernel() -> int:
    best: dict[int, tuple] = {}
    for b in range(-6, 7):
        for a in range(-40, 41):
            n = a * a + 7 * b * b
            if (3 * a + b) % 3:
                continue
            key = (abs(b), abs(a), a < 0, b < 0)
            cur = best.get(n)
            if cur is None or key < cur[0]:
                best[n] = (key, a, b)
    mask = 1
    for v in sorted(best)[:40]:
        mask |= mask << v
    return mask.bit_count()


class Probes:
    """Probe times of one worker, and the time spent taking them."""

    def __init__(self):
        self.times: list[float] = []
        self.ends: list[float] = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def take(self, n: int = 1) -> None:
        # a collection inside the probe would scan the program's heap
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            self._time_kernel(n)
        finally:
            if gc_was_on:
                gc.enable()

    def _time_kernel(self, n: int) -> None:
        t0 = time.perf_counter()
        for _ in range(n):
            t = time.perf_counter()
            kernel()
            self.ends.append(time.perf_counter())
            self.times.append(self.ends[-1] - t)
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def between_ops(self) -> None:
        """One probe per PROBE_EVERY_S of ops since the last probe, so that
        a workload of few long ops gets as many probes as one of many
        short ops."""
        due = int((time.perf_counter() - self.last) / PROBE_EVERY_S)
        if due:
            self.take(min(due, MAX_PROBES_AT_ONCE))

    @contextlib.contextmanager
    def while_waiting(self):
        """Probe every PROBE_EVERY_S on a thread while this process waits
        for others, as the verify driver waits for its pool.  These probes
        run beside the work, so their time is not taken out of it, and
        they leave the collector alone: a pool that forks while a probe
        runs must not inherit it switched off.  The pool forks while the
        thread runs; the thread holds no lock a pool worker takes, and the
        workers never touch it."""
        stop = threading.Event()

        def probe_until_stopped():
            while not stop.wait(PROBE_EVERY_S):
                self._time_kernel(1)

        thread = threading.Thread(target=probe_until_stopped, daemon=True)
        thread.start()
        spent = self.spent
        try:
            yield
        finally:
            stop.set()
            thread.join()
            self.spent = spent

    def median(self) -> float:
        return statistics.median(self.times)

    def scales(self, ops: list[tuple[float, float]]) -> list[float]:
        """scale() for each op, given as (start, duration), from the median
        of the probes within WINDOW_S of it: the host changes speed within
        a second, and one scale for a whole round would leave an op's time
        as fast or slow as the host was while it ran."""
        out = []
        for start, duration in ops:
            i = bisect.bisect_left(self.ends, start - WINDOW_S)
            j = bisect.bisect_right(self.ends, start + duration + WINDOW_S)
            near = self.times[i:j] or self.times
            out.append(scale(statistics.median(near)))
        return out


def scale(probe_s: float) -> float:
    """Factor that turns a time measured while the probe took probe_s into
    the time at the nominal host speed."""
    return NOMINAL_PROBE_S / probe_s
