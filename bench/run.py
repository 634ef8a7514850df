"""hompoly benchmark driver.

    python3 bench/run.py --workload {enum,suite,table,beta,all} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the directory holding `src/` and
`bench/`).  Each repetition is a fresh Python process (`bench/child.py`),
because every CLI run starts cold: hompoly's caches and the lazy
representations of `Polytope` start empty.  Repetitions run one at a
time, and the driver keeps starting them until the next one would end
after `--seconds`, with at least MIN_REPS of them.

With `--trace 0` the driver reports the end-to-end metrics, each the
median over the repetitions.  `wall_s`, `cpu_s` and `setup_s` are in
reference-host seconds (see `hostspeed.py`): measured seconds scaled by
the speed of the host next to the work, as a fixed probe measured it in
the same process.  Runs of the same code on a host whose speed drifts by
a quarter within minutes then stay comparable, while a change in hompoly
still moves them in full.  The measured times are printed and recorded
next to them as `raw.<metric>`.

With `--trace 1` it alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, plus the tracing
overhead (traced minus untraced measured `wall_s`).  Every repetition's
outputs are checked against pinned values, and all repetitions of a
run, traced or not, must give identical output facts.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A full record of the run,
with provenance, goes to `bench/_out/<workload>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 28
MIN_REPS = 3
MIN_TRACE_PAIRS = 1
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported by a traced run; a module or function that a
# workload never calls reports 0 calls and 0.0 s.
MODULES = ("linalg", "dd", "polytope", "groups", "homs", "counts",
           "experiments", "verify", "jsonio", "cli")
CORE_CLAIMS = ("dim-formula", "constant-maps", "facet-form", "box-simplex-rank",
               "rank1-factorization", "cube-simplex-realization", "hom-simplex-power",
               "hom-into-cube", "diamond-center", "diamond-subcross",
               "diamond-image-count", "diamond-image-shape", "vertex-image-law",
               "face-law", "count-agreement", "rank-sandwich", "box-diamond-bound",
               "beta-value")
PER_LAYER = {
    **{f"{m}.{k}": u for m in MODULES
       for k, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    "dd.rows_in": "count",
    "dd.rays_out": "count",
    "dd.max_rays_out": "count",
    "linalg.rank.calls": "count",
    "linalg.rref.calls": "count",
    "polytope.from_points.calls": "count",
    "polytope.intersect.calls": "count",
    "polytope.combinatorially_equal.calls": "count",
    "homs.image_polytope.calls": "count",
    "homs.is_vertex_map.calls": "count",
    "counts.origin_strictly_inside.calls": "count",
    "groups.orbit_count.busy_s": "s",
    "jsonio.bytes_out": "bytes",
    **{f"verify.claim.{c}.busy_s": "s" for c in CORE_CLAIMS},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def provenance() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                    capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": commit,
        "git_dirty_src": dirty,
    }


def run_child(workload: str, seed: int, trace: bool, work: Path) -> dict | None:
    """One repetition in a fresh process; None if it failed."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    # No PYTHON* setting of the caller reaches the child, and string
    # hashing is fixed so every repetition does the same work.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    spawn_t = clock()
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(BENCH / "child.py"), workload, str(seed),
             str(work), repr(spawn_t), "1" if trace else "0", str(result_path)],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"repetition killed after {CHILD_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(f"repetition failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        return None
    with open(result_path) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _, _, _, check = WORKLOADS[workload]
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # A round is a list of traced flags, one per repetition.  A traced run
    # alternates untraced and traced repetitions, each side going first in
    # turn, so drift in the machine's speed does not bias the overhead.
    plan = ([False, True], [True, False]) if trace else ([False],)
    min_rounds = MIN_TRACE_PAIRS if trace else MIN_REPS
    reps: list[tuple[bool, dict | None]] = []
    round_s: list[float] = []
    load_start = os.getloadavg()
    start = clock()
    try:
        while True:
            t = clock()
            for traced in plan[len(round_s) % len(plan)]:
                reps.append((traced, run_child(workload, seed, traced, work)))
                if traced and reps[-1][1] is not None:
                    shutil.copyfile(work / "trace.json", OUT / f"trace-{workload}.json")
            round_s.append(clock() - t)
            elapsed = clock() - start
            if len(round_s) >= min_rounds and elapsed + statistics.median(round_s) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_end = os.getloadavg()

    attempted = failed = 0
    failures: list[str] = []
    facts_seen: list[str] = []
    for traced, res in reps:
        if res is None:
            attempted += 1
            failed += 1
            failures.append("repetition did not complete")
            continue
        facts_seen.append(json.dumps(res["facts"], sort_keys=True))
        for name, ok in check(res["facts"], seed):
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"{name}{' (traced)' if traced else ''}")
    # All repetitions, traced or not, must agree on every output fact.
    attempted += 1
    if len(set(facts_seen)) > 1:
        failed += 1
        failures.append("repetitions disagree on output facts")

    plain = [r for t, r in reps if r is not None and not t]
    traced_reps = [r for t, r in reps if r is not None and t]
    metrics: dict[str, tuple[float, str, int]] = {}
    raw: dict[str, tuple[float, str, int]] = {}
    if trace and plain and traced_reps:
        traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
        overall = {"trace.wall_s": traced_wall,
                   "trace.overhead_s": traced_wall - statistics.median(r["wall_s"] for r in plain)}
        for name, unit in PER_LAYER.items():
            value = overall.get(name)
            if value is None:
                value = statistics.median(r["layers"].get(name, 0) for r in traced_reps)
            metrics[name] = (value, unit, len(traced_reps))
    elif not trace and plain:
        for name, unit in END_TO_END.items():
            values = [r["ref"].get(name, r[name]) for r in plain]
            metrics[name] = (statistics.median(values), unit, len(plain))
        for name in ("wall_s", "cpu_s", "setup_s", "probe_s"):
            raw[f"raw.{name}"] = (statistics.median(r[name] for r in plain), "s", len(plain))

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "raw": raw,
        "repetitions": [{"traced": t, **({k: v for k, v in r.items() if k != "facts"}
                                          if r else {"failed": True})} for t, r in reps],
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "seconds": seconds,
    }


def report(rec: dict) -> None:
    print(f"== {rec['workload']} (seed {rec['seed']}, trace {int(rec['trace'])})")
    for name, (value, unit, n) in {**rec["metrics"], **rec["raw"]}.items():
        print(f"  {name:<42} {value:>14.6f} {unit:<6} n={n}")
    ratio = rec["failed"] / rec["attempted"]
    print(f"  {'fail_ratio':<42} {ratio:>14.6f} {'ratio':<6} "
          f"({rec['failed']}/{rec['attempted']} checks)")
    for f in rec["failures"][:20]:
        print(f"  FAILED: {f}")
    print(f"  loadavg {rec['loadavg_start']} -> {rec['loadavg_end']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; the table workload uses seeds N.. N+3")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hompoly" / "__init__.py").is_file():
        print(f"error: no hompoly sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Byte-compile first, so no repetition pays for it in its set-up time.
    if not compileall.compile_dir(str(SRC / "hompoly"), quiet=1):
        print("error: hompoly sources do not compile", file=sys.stderr)
        return 2

    prov = provenance()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        rec["provenance"] = prov
        with open(OUT / f"{name}-trace{args.trace}.json", "w") as fh:
            json.dump(rec, fh, indent=1)
        report(rec)
        records.append(rec)
    print("provenance " + json.dumps(prov, sort_keys=True))

    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}." if prefix else "") + name: {"value": v, "unit": u}
                    for r in records for name, (v, u, _) in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
