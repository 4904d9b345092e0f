"""Machine-speed calibration for timings taken on a shared host.

On a machine shared with other tenants the same interpreter work can take
1.5 times longer for tens of seconds at a time, while another tenant is
busy (README.md shows a trace).  A run cannot avoid those periods, so it
measures them: `SpeedProbe` runs a fixed reference computation every
`PERIOD_S` of wall time from a SIGALRM handler in the measured process, and
`adjust` converts an iteration's wall time into reference seconds, the time
it would have taken at the speed where the reference takes `NOMINAL_S`.

The reference is independent of loopstar, so a change to the program moves
the adjusted time exactly as it moves the wall time; only the host's speed
is divided out.  The handler's own time is subtracted before converting, and
the handler keeps the cyclic garbage collector off, so that no collection of
the program's heap is charged to the probe.

Set-up time has a reference of its own.  Set-up in a fresh interpreter is
mostly the import of numpy, and that import alone takes 0.09 s at some times
and 0.17 s at others, while the rest of set-up hardly moves (README.md
shows both).  `import_reference_seconds` times a fresh interpreter importing
numpy alone, which is independent of loopstar; a set-up sample counts it at
`IMPORT_NOMINAL_S` instead.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

NOMINAL_S = 250e-6     # reference duration at the reference speed
PERIOD_S = 0.025
IMPORT_NOMINAL_S = 0.1  # numpy import counted in a set-up sample

IMPORT_REFERENCE = """\
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""

_KEYS = tuple(tuple(range(i % 7, i % 7 + 3)) for i in range(12))


def reference() -> int:
    """Fixed interpreter work like the exact layer's: tuple keys, dicts, Fractions."""
    acc = {}
    for a in _KEYS:
        for b in _KEYS:
            key = a + b
            v = acc.get(key)
            acc[key] = Fraction(len(a), len(b) + 1) if v is None else v + Fraction(1, len(key))
    return len(acc)


def reference_seconds() -> float:
    """Median duration of five runs of `reference` back to back."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_reference_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_REFERENCE],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


class SpeedProbe:
    """Samples the reference duration while a block runs (main thread only)."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        # A collection here would scan the program's heap and be charged to
        # the probe, so the reference runs with the cyclic collector off.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean reference duration over `NOMINAL_S`: 1.0 at the reference speed."""
        samples = self.samples or [reference_seconds()]
        return statistics.fmean(samples) / NOMINAL_S

    def adjust(self, wall_s: float) -> float:
        """Wall seconds of the probed block, without the probe, at the reference speed."""
        return (wall_s - sum(self.samples)) / self.slowdown()
