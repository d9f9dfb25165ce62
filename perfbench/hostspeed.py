"""Host-speed sampling, to report times in reference seconds.

On a shared host the speed of one CPU changes by up to 2x from one second
to the next, as neighbours come and go on the same core; the process's own
CPU time changes with it, so neither wall nor CPU seconds of the same work
repeat from run to run. The workload process therefore times a fixed
reference loop every ``INTERVAL_S`` seconds, on its own thread of
execution (a SIGALRM handler runs in the main thread, between the
program's bytecodes), and ``reference_seconds`` converts a stretch of wall
time into the time it would have taken at the host's quiet-time speed. The
samples' own time is taken out of the stretch.

``python_loop`` updates a 2048-entry dict in scattered order: interpreter
dispatch over data in the core's own caches, like the program's dict,
itertools and per-trial code. It is warmed once before it is timed, so its
time does not depend on what the program left in the caches.

Not all code slows down alike when the core is shared: the vectorised
numpy blocks of ``lottery.simulate_batch`` slow down about half as much as
interpreter code. A workload's ``python_share`` is the share of its time
that slows down like the loop, taken as the least-squares slope of its ops'
times against the loop's slowdown; the rest is taken not to slow down. The
slowdown of a stretch is then ``share * loop / PYTHON_REF_S + 1 - share``,
with PYTHON_REF_S the loop's quiet-time time on the 2-vCPU host the
benchmark was tuned on, so reference seconds read close to that host's
quiet-time wall seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
PYTHON_LOOPS = 3  # timed python_loop calls per sample
PYTHON_REF_S = 0.00048  # their quiet-time seconds
SMOOTH = 5  # a stretch's slowdown is the median of this many nearby samples

_KEYS = [(i * 7919) % 2048 for i in range(2048)]
_TABLE = dict.fromkeys(range(2048), 0)


def python_loop() -> None:
    table = _TABLE
    for key in _KEYS:
        table[key] += 1


class Sampler:
    """Times the reference loop on a SIGALRM interval timer."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # when each sample began
        self.spans: list[float] = []  # its whole duration, warm-ups included
        self.python: list[float] = []  # its timed python_loop calls
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic()
        python_loop()  # warm-up
        t1 = time.monotonic()
        for _ in range(PYTHON_LOOPS):
            python_loop()
        t2 = time.monotonic()
        self.starts.append(t0)
        self.spans.append(t2 - t0)
        self.python.append(t2 - t1)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.starts:  # ended within one interval
            self._sample(signal.SIGALRM, None)

    def record(self) -> dict[str, list[float]]:
        return {"starts": self.starts, "spans": self.spans,
                "python": self.python}


def reference_seconds(record: dict[str, list[float]], python_share: float,
                      begin: float, end: float) -> float:
    """Wall time from begin to end, less the samples taken in it, in
    reference seconds. Each stretch between samples is divided by the
    median slowdown of the SMOOTH samples around it; stretches before the
    first sample or after the last one take the nearest samples'."""
    starts, spans = record["starts"], record["spans"]
    slowdown = [python_share * p / PYTHON_REF_S + 1.0 - python_share
                for p in record["python"]]
    if not slowdown:
        raise ValueError("no host-speed samples")
    half = SMOOTH // 2

    def factor(i: int) -> float:
        lo = min(max(0, i - half), max(0, len(slowdown) - SMOOTH))
        return 1.0 / statistics.median(slowdown[lo:lo + SMOOTH])

    first = bisect.bisect_left(starts, begin)
    last = bisect.bisect_left(starts, end)
    total, mark = 0.0, begin
    for i in range(first, last):
        total += max(0.0, starts[i] - mark) * factor(i)
        mark = min(starts[i] + spans[i], end)
    return total + max(0.0, end - mark) * factor(max(0, last - 1))
