"""Machine-speed probe used to normalize timings.

On a shared machine the CPU this process runs on slows down by up to about
1.5x for seconds to minutes at a time while other tenants load it; process
CPU time slows exactly as wall time does, so it is not preemption.  A
30-second run can sit wholly inside such a phase, so medians within a run
cannot remove it.  SpeedProbe.time therefore runs a fixed pure-Python
kernel five times before and after the timed call, and every 50 ms during
it from a SIGALRM handler, and scales the call's wall time by the mean
kernel time:

    normalized = (wall - time spent in the handler) * NOMINAL_S / mean(kernel)

The kernel mixes the operations the program spends its time in (bit tricks
on int masks, dict rebuilds, sorting, recursive calls), so that it slows
down by about the factor the program does.  It is benchmark code: a change
to the program cannot change it.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

# Kernel time, in seconds, that defines the reference speed: a normalized
# second is a second on a CPU that runs the kernel in NOMINAL_S.
NOMINAL_S = 0.0005
INTERVAL_S = 0.05
BRACKET = 5


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(5)
        self._adj = {v: rng.getrandbits(64) & ~(1 << v) for v in range(64)}
        self._samples: list[float] = []
        self.paused = 0.0  # seconds spent in the handler so far

    def clock(self) -> float:
        """perf_counter without the time spent in the handler."""
        return perf_counter() - self.paused

    def time(self, fn):
        """Run fn(); return (its result, wall seconds, normalized seconds).

        Wall seconds exclude the kernel runs made during the call."""
        self._samples = [self._time_kernel() for _ in range(BRACKET)]
        paused = self.paused
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
            signal.signal(signal.SIGALRM, previous)
        wall = end - start - (self.paused - paused)
        self._samples += [self._time_kernel() for _ in range(BRACKET)]
        return result, wall, wall * NOMINAL_S / statistics.fmean(self._samples)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self._samples.append(self._time_kernel())
        self.paused += perf_counter() - start

    def _time_kernel(self) -> float:
        start = perf_counter()
        self._kernel()
        return perf_counter() - start

    def _kernel(self) -> int:
        adj = self._adj
        total = 0
        for mask in list(adj.values())[:32]:
            while mask:
                low = mask & -mask
                total += low.bit_length()
                mask ^= low
        for r in range(4):
            rebuilt = {v: (m & ~(1 << r)) | (1 << ((v + r) % 64)) for v, m in adj.items()}
            total += sum(m.bit_count() for m in rebuilt.values())
            total += len(sorted(rebuilt, key=lambda v: rebuilt[v] & 0xFFFF))

        def branch(mask: int, depth: int) -> int:
            if depth == 0 or not mask:
                return 1
            low = mask & -mask
            v = low.bit_length() - 1
            return branch(mask & adj[v] & ~low, depth - 1) + branch(mask ^ low, depth - 1)

        return total + branch((1 << 64) - 1, 7)
