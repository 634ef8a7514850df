"""One repetition of a workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED WORKDIR SPAWN_T TRACE RESULT

SPAWN_T is the CLOCK_MONOTONIC reading the driver took just before
starting this process, so set-up time covers interpreter start, the
import of hompoly and the workload's own set-up.  TRACE is 0 or 1; with 1
the timed part runs under the span tracer, whose spans are written to
WORKDIR/trace.json.  The measurements and output facts go to RESULT as
JSON.

An untraced repetition also reports its three times in reference-host
seconds under "ref", from the host-speed probe (`hostspeed.py`) sampled
right after set-up and throughout the timed part.  A traced repetition
runs no probe during the timed part, so its spans hold hompoly's time
only.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, work, spawn_t, trace, result_path = argv
    seed, work, spawn_t, trace = int(seed), Path(work), float(spawn_t), trace == "1"

    import hompoly
    import hompoly.cli  # noqa: F401  (the CLI is part of what a user's run loads)

    if not Path(hompoly.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hompoly imported from {hompoly.__file__}, not from {SRC}")

    from hostspeed import HostSpeed, clock
    from tracer import Tracer
    from workloads import WORKLOADS

    setup, run, facts, _ = WORKLOADS[workload]
    state = setup(work, seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_t

    host = HostSpeed()
    speed = host.calibrate()
    tracer = Tracer().install() if trace else None
    cpu0 = cpu_seconds()
    t0 = clock()
    try:
        with contextlib.nullcontext() if trace else host:
            raw = run(work, seed, state)
    finally:
        t1 = clock()
        cpu1 = cpu_seconds()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_s = host.probe_time(t0, t1)
    wall_s = t1 - t0 - probe_s
    cpu_s = cpu1 - cpu0 - probe_s

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": statistics.median(end - start for start, end in host.samples),
        "probes": len(host.samples),
        "facts": facts(work, seed, state, raw),
    }
    if not trace:
        wall_ref = host.reference_seconds(t0, t1)
        result["ref"] = {"setup_s": setup_s * speed, "wall_s": wall_ref,
                         "cpu_s": cpu_s * wall_ref / wall_s}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(work / "trace.json")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
