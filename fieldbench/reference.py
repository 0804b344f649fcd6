"""Reference seconds: times scaled by the host's speed while they were measured.

The benchmark shares a few vCPUs of a busy host.  A fixed piece of code runs
about 1.7x slower in some stretches than in others; a stretch lasts a few
seconds, each vCPU has its own, and user CPU time grows with wall time in
them, so no clock hides it.  A timing taken before or after a measurement
misses the stretches inside it.  ``SpeedProbe`` therefore samples the speed
during the measurement, in the measured process: on a wall-clock timer it
runs a small fixed kernel and records how long the kernel took.  Work done
in a sample interval costs ``NOMINAL_S / kernel time`` of its wall time on a
host that runs the kernel in ``NOMINAL_S``, so the measurement in reference
seconds is its wall time, less the probes, times the mean of that ratio.

The kernel is pure Python on a few kilobytes (big-integer XOR and shifts,
dict updates and float arithmetic, as in the program's persistence,
filtration and CSV code), so cache misses caused by the program add little
to it.  It never touches ``fieldscape``: a change to the program cannot
change the reference.
"""

from __future__ import annotations

import signal
from time import perf_counter

# The kernel's time in the host's fast stretches (2-vCPU Intel Xeon VM,
# Python 3.11).  It only sets the scale of reference seconds; never change
# it, or every recorded figure changes with it.
NOMINAL_S = 0.0004
PERIOD_S = 0.02  # one probe per 20 ms of wall time: about 2 % of it

_SEED = (1 << 1021) // 3 + 12345


def kernel() -> int:
    """A fixed mix of integer, dict and float work on a few kilobytes."""
    x = _SEED
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(720):
        x ^= x >> 7
        x ^= (x << 3) & ((1 << 1024) - 1)
        low = x.bit_length() - 1
        table[low ^ i] = table.get(low ^ i, 0) + 1
        acc += (i * 0.5 + acc) * 1e-3
    return len(table) + int(acc)


class SpeedProbe:
    """Samples the kernel's time on a SIGALRM timer while the ``with`` block runs.

    The handler runs in the main thread between bytecodes, so a long call
    into native code delays a probe until it returns.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> SpeedProbe:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def reference_seconds(wall_s: float, samples: list[float]) -> tuple[float, float]:
    """(the measured time less the probes, the same in reference seconds)."""
    own = wall_s - sum(samples)
    if not samples:  # shorter than one period: no sample, no scaling
        return own, own
    return own, own * sum(NOMINAL_S / s for s in samples) / len(samples)


if __name__ == "__main__":
    import statistics

    times = []
    for _ in range(2000):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    print(f"kernel: median {statistics.median(times):.6f} s, min {min(times):.6f} s")
