"""Machine-speed calibration for the timing metrics.

On a shared host the speed of a core drifts with other tenants' load: over
tens of seconds a whole benchmark run can be 1.5x slower than the next one,
on the same code and inputs. A fixed loop of the kinds of work hierlog spends
its time on (dict probes and updates, string formatting, regular-expression
matching, JSON encoding) slows down with the machine and not with hierlog's
code. The benchmark runs a block of it (`CALIBRATION_S` long, so it spans
the fast and slow spells the core flips between) right before and right
after each timed step, and short samples of it within a long step, and
rescales the step to a machine on which one loop takes `REFERENCE_S`:

    scaled = measured * REFERENCE_S / (mean time of the loops around and in it)

A change to hierlog moves the measured time and not the loop's, so it moves
the scaled time by the same share; a slow spell of the machine moves both
and largely cancels. In a 4-minute probe on the 2-vCPU host the bounds were
set on, 13-second windows of batch runs spread (interquartile range over
median) 0.38 in wall time and 0.06 once scaled. The raw wall times are kept
next to the scaled ones in each run's result.json.
"""

from __future__ import annotations

import json
import re
import signal
import time
from contextlib import contextmanager

# Seconds of one loop on a quiet core of the 2-vCPU x86_64 host (Python
# 3.11) the bounds in BENCHMARK.json were set on.
REFERENCE_S = 0.004
CALIBRATION_S = 0.15  # a block before and after each step
SAMPLE_S = 0.02  # a sample within a step

_LINE = re.compile(r"^unit(\d+) op(\d+) st(\d) f0 f1 (\S+)$")
_RECORD = {"entity": "Unit07", "action": "op03", "status": ["st1", "st2", "st4"], "count": 12, "score": 0.25}


def _loop() -> int:
    # Integer keys and strings only: their hashes do not depend on the
    # process's hash seed, and they are not GC-tracked, so the loop hardly
    # adds to the measured program's garbage collections.
    counts: dict[int, int] = {}
    x = 7
    total = 0
    for i in range(1000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 6500
        counts[key] = counts.get(key, 0) + 1
        text = f"unit{key} op{i % 13} st{i % 7} f0 f1 #{x % 100000:05d}"
        total += len(text.upper()) + text.find("op")
        if _LINE.match(text) is not None:
            total += 1
        if i % 4 == 0:
            total += len(json.dumps(_RECORD, sort_keys=True))
    return total + len(counts)


def calibrate(seconds: float) -> tuple[float, int]:
    """Run loops for at least `seconds`; returns (elapsed seconds, loops)."""
    clock = time.perf_counter
    start = clock()
    loops = 0
    while True:
        _loop()
        loops += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return elapsed, loops


class Calibration:
    """Calibrates between and within timed steps; `after_step` gives each step its factor."""

    def __init__(self) -> None:
        self._samples = [calibrate(CALIBRATION_S)]

    def sample(self) -> None:
        """A short block within a long step, so the factor follows the machine through it."""
        self._samples.append(calibrate(SAMPLE_S))

    @contextmanager
    def sampling(self, every_s: float):
        """Sample every `every_s` of wall time while the block runs, from a SIGALRM handler.

        For a step that is one call, such as a batch run. Yields a
        one-item list that holds the seconds the samples took, for the
        caller to take off the step's time.
        """
        spent = [0.0]

        def on_alarm(signum, frame) -> None:
            start = time.perf_counter()
            self.sample()
            spent[0] += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def after_step(self) -> float:
        """Calibrate again; returns the factor to reference seconds for the step just timed.

        The factor uses every loop run since the step began: the block
        before it, the samples within it and the block after it.
        """
        end = calibrate(CALIBRATION_S)
        samples, self._samples = self._samples + [end], [end]
        elapsed = sum(e for e, _ in samples)
        loops = sum(n for _, n in samples)
        return REFERENCE_S * loops / elapsed
