"""Machine-speed yardstick and the normalisation every timed metric uses.

On a small shared host the CPU speed a process gets drifts by tens of
percent between runs and within a run.  The yardstick is a fixed
pure-Python loop timed between operations, while nothing else of the
benchmark is running, so a slow-down of the host shows up in it as
well as in the operation.  An operation's time is reported as

    value * REFERENCE_MS / median(yardstick samples around it)

so it reads as if the host ran at the reference speed.  "Around it" is
the WINDOW samples before and after it, because the speed drifts within
a run: against the median of the whole run, the p90 of 10k-node solves
spread several times more between runs.  The module
must not import ``repro``: the yardstick measures the machine, not the
program, and no change to the program may move it.

Start-up is process creation, imports and file access, which the loop
does not follow.  Set-up times are scaled the same way by a second
yardstick: a fresh interpreter that imports NumPy, the program's one
compiled dependency, and exits.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Iterable, List, Tuple

#: The fixed reference time of one yardstick run.  It only sets the
#: scale of normalised values; it never changes between commits.
REFERENCE_MS = 40.0

ITERATIONS = 300_000

#: The fixed reference time of one start-up yardstick run, in seconds.
REFERENCE_STARTUP_S = 0.2

#: Samples on each side of an operation that its normalisation uses.
WINDOW = 2


def yardstick_ms(iterations: int = ITERATIONS) -> float:
    """Time one run of the fixed loop, in milliseconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) & 0xFFFF
    elapsed = time.perf_counter() - t0
    if acc < 0:  # never true; keeps the loop's result live
        raise AssertionError(acc)
    return elapsed * 1e3


def startup_yardstick_s() -> float:
    """Time one start of a fresh interpreter that imports NumPy, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def normalise_setup(setups: Iterable[float], yards: Iterable[float]) -> float:
    """The median set-up time scaled by the median start-up yardstick."""
    return statistics.median(setups) * REFERENCE_STARTUP_S / statistics.median(yards)


class Yardstick:
    """The yardstick samples of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        ms = yardstick_ms()
        self.samples.append(ms)
        return ms

    @property
    def position(self) -> int:
        """Where an operation timed now sits: after this many samples."""
        return len(self.samples)

    def local_ms(self, position: int) -> float:
        """Median of the samples around an operation timed at ``position``."""
        around = self.samples[max(0, position - WINDOW):position + WINDOW]
        if not around:
            raise ValueError("no yardstick samples taken")
        return statistics.median(around)

    def times(self, ops: Iterable[Tuple[float, int]]) -> List[float]:
        """(duration, position) pairs, each scaled to the reference speed
        by the samples around it."""
        return [normalise_time(raw, self.local_ms(pos)) for raw, pos in ops]

    @property
    def median_ms(self) -> float:
        if not self.samples:
            raise ValueError("no yardstick samples taken")
        return statistics.median(self.samples)

    def time_value(self, raw: float) -> float:
        """A duration (any unit) scaled to the reference machine speed by
        the median of all samples: for totals over a whole run."""
        return normalise_time(raw, self.median_ms)


def normalise_time(raw: float, yard_ms: float) -> float:
    return raw * REFERENCE_MS / yard_ms

