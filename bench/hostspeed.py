"""Host-speed probe: times in reference-host seconds on a shared machine.

A benchmark repetition on a shared virtual machine can run a quarter
slower or faster than the one before it, and such phases last from
seconds to minutes, so medians over one run do not remove them.  The
probe measures the host's speed next to the work, in the same process,
with a fixed piece of plain Python that calls nothing from hompoly:

- `calibrate` runs the probe WINDOW times back to back (after set-up);
- inside `with sampler:` a SIGALRM timer runs it every PERIOD_S seconds
  of wall time, between two bytecodes of whatever the main thread runs.

`reference_seconds` then splits the timed interval at the probes and
divides each stretch of work by the median duration of the WINDOW probes
nearest to it, times PROBE_REF_S.  A host that runs everything 20% slower
for a while leaves the result unchanged; a change to hompoly that makes
its work 20% slower raises it by 20%.  The probes' own time (about 2% of
the interval) is left out of the stretches.
"""

from __future__ import annotations

import signal
import statistics
import time
from math import gcd

# The probe has two halves: a bare interpreter loop, and integer
# arithmetic with gcd and a dict, closer to what hompoly's exact kernels
# do.  Tried alone on a drifting host, each tracked one of the `enum` and
# `table` workloads worse than the two together.
LOOP_ITERATIONS = 12_500
GCD_ITERATIONS = 2_500
# What one probe takes on the host the benchmark was written on (2-vCPU
# Xeon VM, Python 3.11.7), so reference-host seconds are near seconds there.
PROBE_REF_S = 0.002
PERIOD_S = 0.1
WINDOW = 5

clock = time.perf_counter


def probe_once() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    acc, seen = 1, {}
    for i in range(1, GCD_ITERATIONS):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFFFFFFFFFF
        seen[acc & 4095] = gcd(acc, i)
    return total + len(seen)


class HostSpeed:
    """Probe samples `(start, end)` in `clock` seconds, in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._old_handler = None

    def sample(self, *_signal_args) -> None:
        start = clock()
        probe_once()
        self.samples.append((start, clock()))

    def calibrate(self) -> float:
        """Take WINDOW samples now; return the host-speed factor, the
        reference seconds per measured second."""
        for _ in range(WINDOW):
            self.sample()
        recent = [end - start for start, end in self.samples[-WINDOW:]]
        return PROBE_REF_S / statistics.median(recent)

    def __enter__(self) -> "HostSpeed":
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds spent in probes that started within [t0, t1)."""
        return sum(end - start for start, end in self.samples if t0 <= start < t1)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The work done in [t0, t1], probes excluded, in reference-host
        seconds.  Needs a sample before t1; `calibrate` takes them."""
        durations = [end - start for start, end in self.samples]

        def local(i: int) -> float:
            lo = min(max(0, i - WINDOW // 2), max(0, len(durations) - WINDOW))
            return statistics.median(durations[lo:lo + WINDOW])

        total, prev, last = 0.0, t0, None
        for i, (start, end) in enumerate(self.samples):
            if not t0 <= start < t1:
                if start < t0:
                    last = i
                continue
            total += (start - prev) / local(i)
            prev, last = end, i
        if last is None:
            raise ValueError("no probe sample before the end of the interval")
        total += max(0.0, t1 - prev) / local(last)
        return total * PROBE_REF_S
