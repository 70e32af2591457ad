"""Fixed reference work that tells how fast this machine runs Python now.

A shared host can run this process at speeds up to about twice apart, in
stretches that last from a fraction of a second to several minutes, so raw
timings of the same code drift between runs by more than any useful
regression bound.  The benchmark therefore measures the speed the machine
gives while each job runs and reports the job at reference speed:

    scaled = seconds / (measured time of reference work / its reference time)

that is, as the job would read on a machine where the reference work takes
its fixed reference time.  The reference work does what the program's hot
paths do (XOR elimination on Python-int bit rows, tuple-keyed dict counting)
but uses no virtbetti code, so a change to the program cannot move it.

- ``Meter`` is for a job that runs in this process.  It times a short slice
  of reference work several times just before and just after the job, and
  every ``PERIOD_S`` during it from a SIGALRM handler, so a speed change in
  the middle of a long job is seen.  The time spent in slices during the job
  is taken out of the job's time.
- ``ProcessMeter`` is for a job that starts a process (a CLI command).  It
  times a reference process, a fresh interpreter that runs 200 slices, just
  before and just after the job.  Interpreter start-up slows far less than
  Python code when the host is busy, so slices alone would over-correct such
  a job.
"""

from __future__ import annotations

import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Reference times, rounded, of one slice and of one reference process on the
# machine the benchmark was built on (2.0 GHz Xeon, Python 3.11) in its fast
# stretches; only the unit of the scaled times depends on them.
REFERENCE_S = 0.00025
REFERENCE_PROCESS_S = 0.100

PERIOD_S = 0.02  # between slices during a job: about 2% of its time
EDGE_SLICES = 8  # slices just before and just after a job

_rng = random.Random(20021)
_ROWS = [_rng.getrandbits(700) for _ in range(40)]


def _slice() -> int:
    pivots: dict[int, int] = {}
    for row in _ROWS:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    faces: dict[tuple[int, int, int], int] = {}
    for i in range(800):
        face = (i % 97, i % 89, i % 83)
        faces[face] = faces.get(face, 0) + 1
    return len(pivots) + len(faces)


def slice_seconds() -> float:
    """Wall time of one slice of reference work."""
    start = time.perf_counter()
    _slice()
    return time.perf_counter() - start


class Meter:
    """Speed of this process just before, during and just after one job."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.inside = 0.0  # seconds of slices that ran inside the timed job

    def _edge(self) -> None:
        self.slices += [slice_seconds() for _ in range(EDGE_SLICES)]

    def _tick(self, signum, frame) -> None:
        seconds = slice_seconds()
        self.slices.append(seconds)
        self.inside += seconds

    def start(self) -> None:
        self._edge()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._edge()

    def slowdown(self) -> float:
        """Measured over reference time: 1 at reference speed, above 1 when slower."""
        return statistics.fmean(self.slices) / REFERENCE_S

    def scale(self, seconds: float) -> float:
        """The job's ``seconds`` at reference speed, slices taken out."""
        return (seconds - self.inside) / self.slowdown()


_PROCESS = ("import sys; sys.path.insert(0, sys.argv[1]); import speed\n"
            "for _ in range(200): speed._slice()")


def process_seconds() -> float:
    """Wall time of one reference process, from start to exit."""
    start = time.perf_counter()
    # capture_output, as the CLI jobs do: waiting on the pipes returns at exit,
    # while a bare wait with a timeout polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", _PROCESS, str(Path(__file__).resolve().parent)],
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start


class ProcessMeter:
    """Speed of start-up and Python code just before and just after one job
    that starts a process; ``before`` reuses a time measured just before."""

    def __init__(self, before: float | None = None) -> None:
        self.before = before
        self.after = 0.0

    def start(self) -> None:
        if self.before is None:
            self.before = process_seconds()

    def stop(self) -> None:
        self.after = process_seconds()

    def slowdown(self) -> float:
        """Measured over reference time: 1 at reference speed, above 1 when slower."""
        return (self.before + self.after) / 2 / REFERENCE_PROCESS_S

    def scale(self, seconds: float) -> float:
        """The job's ``seconds`` at reference speed."""
        return seconds / self.slowdown()
