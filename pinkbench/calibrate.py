"""A fixed unit of reference work, timed to read the machine's current speed.

The shared machine the benchmark runs on alternates between fast and slow
periods, lasting from a second to minutes.  A slow period slows Python
bytecode by up to 60 % and numpy's streaming kernels by about half as much.
A `Calibration` times a small fixed unit of work made of no pinkforge code,
from one or both of two parts: "python", integer, tuple and dict work in the
interpreter, like the Lie modules'; and "numpy", sorting, bit shifts and
FFTs, like the forms modules'.  Each workload is scaled by the parts most
like its own work (workloads.UNIT_PARTS).

worker.py times one unit before each operation and after it, and a
`Sampler` times one more every `SAMPLE_INTERVAL_S` while the operation runs.
The operation's own time (its wall time less the units inside it) divided
by the mean unit, times the unit's `reference_s`, is its time on a machine
where one unit takes `reference_s`.  A change to pinkforge changes the
operation's time and not the unit's, so it shows in full; a change of
machine speed changes both and cancels out.
"""

import signal
from time import perf_counter

import numpy as np

# Median time of each part on the machine where the figures in README.md were
# taken (2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = {"python": 0.0065, "numpy": 0.0065}
SAMPLE_INTERVAL_S = 0.2


class Calibration:
    """Times the unit made of `parts` (keys of REFERENCE_S).  Owns the numpy
    part's arrays, allocated once so that a sample makes no large
    allocation."""

    def __init__(self, parts):
        self.parts = [getattr(self, f"_{part}_part") for part in parts]
        self.reference_s = sum(REFERENCE_S[part] for part in parts)
        rng = np.random.default_rng(20150505)
        self._keys = rng.integers(0, 1 << 40, 1 << 18)
        self._sorted = np.empty_like(self._keys)
        self._bits = rng.integers(0, 2, 1 << 22, dtype=np.uint8)
        self._xor = np.empty_like(self._bits)
        self._signal = rng.random(1 << 14)
        for _ in range(3):              # first samples pay page faults and caches
            self.sample()

    def sample(self):
        """Seconds taken by one unit of reference work, now."""
        t0 = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - t0

    @staticmethod
    def _python_part():
        table = {}
        acc = 0
        for i in range(10_000):
            key = (i % 997, i % 331)
            table[key] = table.get(key, 0) + (i * i) % 7
            acc += (i * 3) ^ (i >> 2)
        return acc + len(table)

    def _numpy_part(self):
        self._sorted[:] = self._keys
        self._sorted.sort()
        np.copyto(self._xor, self._bits)
        for shift in (1, 3, 7, 15, 31):
            np.bitwise_xor(self._xor[shift:], self._bits[:-shift], out=self._xor[shift:])
        spectrum = np.fft.rfft(self._signal)
        return int(self._sorted[0]) + int(self._xor[-1]) + float(np.fft.irfft(spectrum * spectrum)[0])


class Sampler:
    """Within a `with` block, takes a unit every `interval` seconds from a
    SIGALRM handler, or none if `interval` is None.  `units` holds the units
    taken in the last block and `spent` the seconds the handler took, which
    the caller subtracts from the block's time."""

    def __init__(self, calibration, interval):
        self.calibration = calibration
        self.interval = interval
        self.units = []
        self.spent = 0.0
        self._on = False
        self._old = None

    def __enter__(self):
        self.units, self.spent = [], 0.0
        if self.interval:
            self._old = signal.signal(signal.SIGALRM, self._take)
            self._on = True
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            self._on = False            # a signal already on its way takes nothing
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        return False

    def _take(self, signum, frame):
        if self._on:
            t0 = perf_counter()
            self.units.append(self.calibration.sample())
            self.spent += perf_counter() - t0
