"""The benchmark's four workloads and the checks on their outputs.

A workload has three parts.  `setup` runs in the repetition's child
process before timing starts and makes the inputs; `run` is the timed
part and returns the raw outputs; `facts` digests those outputs after
timing stops.  `check` runs in the driver process on the facts and
compares them with values pinned here, which are derived independently
of hompoly (closed-form counts, or digests recorded from a checked run).

Only the child imports hompoly, and only inside these functions, so the
driver process never loads the program it measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from math import comb
from pathlib import Path


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def cli(argv: list[str]) -> tuple[int, str]:
    """Run `hompoly.cli.main(argv)`, returning its exit code and stdout."""
    from hompoly import cli as hompoly_cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hompoly_cli.main(argv)
    return code, buf.getvalue()


def bound_box_diamond(m: int, n: int) -> int:
    """Closed form 2n + 2mn(2n-1) + 2mn(m-1)(n-1), restated here so the
    check does not trust the code under test."""
    return 2 * n + 2 * m * n * (2 * n - 1) + 2 * m * n * (m - 1) * (n - 1)


# -- enum ----------------------------------------------------------------------
#
# Two systems of the cube -> crosspolytope family.  cube:3 -> crosspolytope:3
# (64 rows, dimension 12) meets the lower bound; simplex:3 -> crosspolytope:3
# (32 rows, dimension 12) has (2n)^(m+1) vertex maps and writes all of them.

ENUM_SYSTEMS = {
    "cube3-cross3": ("cube:3", "crosspolytope:3", bound_box_diamond(3, 3)),
    "simplex3-cross3": ("simplex:3", "crosspolytope:3", 6 ** 4),
}
ENUM_PINNED = {
    "cube3-cross3": {
        "stdout_sha": "8b832ebdb584621c51054a0629be24b2485deca94c0de9f2537680d8040879de",
        "out_sha": "97c269a96bd1f11499108a5fbedf952294d3ea8bfdce0265762ae5893744dff9",
    },
    "simplex3-cross3": {
        "stdout_sha": "c38b9bebdab3f9f6b35e077a334f49d71aee1e159767bbbbac787ba775cf6989",
        "out_sha": "133d7f2f0bdf20444d795d7add12aee33fc74c1aaea71f50388003bea6e353b0",
    },
}


def enum_setup(work: Path, seed: int) -> dict:
    codes = {}
    for key, (src, tgt, _) in ENUM_SYSTEMS.items():
        codes[key], _ = cli(["construct", src, tgt, "--out", str(work / f"{key}.hom.json")])
    return {"construct_exit": codes}


def enum_run(work: Path, seed: int, state: dict) -> dict:
    out = {}
    for key in ENUM_SYSTEMS:
        out[key] = cli(["vertices", str(work / f"{key}.hom.json"), "--ranks",
                        "--allow-large", "--out", str(work / f"{key}.maps.json"), "--json"])
    return out


def enum_facts(work: Path, seed: int, state: dict, raw: dict) -> dict:
    facts = {}
    for key, (code, stdout) in raw.items():
        summary = json.loads(stdout) if code == 0 else {}
        facts[key] = {
            "construct_exit": state["construct_exit"][key],
            "exit": code,
            "count": summary.get("count"),
            "rank_histogram": summary.get("rank_histogram"),
            "stdout_sha": sha256(stdout),
            "out_sha": sha256((work / f"{key}.maps.json").read_bytes()) if code == 0 else None,
        }
    return facts


def enum_check(facts: dict, seed: int) -> list[tuple[str, bool]]:
    checks = []
    for key, (_, _, expected) in ENUM_SYSTEMS.items():
        f = facts[key]
        hist = f["rank_histogram"] or {}
        checks += [
            (f"{key}.construct_exit", f["construct_exit"] == 0),
            (f"{key}.exit", f["exit"] == 0),
            (f"{key}.count", f["count"] == expected),
            (f"{key}.histogram_total", sum(hist.values()) == expected),
            (f"{key}.stdout_sha", f["stdout_sha"] == ENUM_PINNED[key]["stdout_sha"]),
            (f"{key}.out_sha", f["out_sha"] == ENUM_PINNED[key]["out_sha"]),
        ]
    return checks


# -- suite ---------------------------------------------------------------------

SUITE_ARGV = ["verify", "--suite", "core", "--threads", "1", "--json"]
SUITE_CLAIMS = 69
SUITE_STDOUT_SHA = "7cee776c0fdd1ba12d649a872e2b6b3c0b7cef3978b39f13f2b0203792a3b8ac"


def suite_run(work: Path, seed: int, state: dict) -> tuple[int, str]:
    return cli(SUITE_ARGV)


def suite_facts(work: Path, seed: int, state: dict, raw) -> dict:
    code, stdout = raw
    results = json.loads(stdout) if stdout else []
    return {
        "exit": code,
        "claims": len(results),
        "passed": sum(r["status"] == "pass" for r in results),
        "stdout_sha": sha256(stdout),
    }


def suite_check(facts: dict, seed: int) -> list[tuple[str, bool]]:
    return [
        ("exit", facts["exit"] == 0),
        ("claims", facts["claims"] == SUITE_CLAIMS),
        ("passed", facts["passed"] == SUITE_CLAIMS),
        ("stdout_sha", facts["stdout_sha"] == SUITE_STDOUT_SHA),
    ]


# -- table ---------------------------------------------------------------------
#
# `hompoly table 3 8 --seed s` for TABLE_SEEDS consecutive seeds starting at
# the benchmark seed.  The perturbed counts are the generic values whatever
# the seed; the random counts depend on it but never exceed C(2n+2, n+2).

TABLE_SEEDS = 4
TABLE_N = range(3, 9)
TABLE_GENERIC = {3: 12, 4: 30, 5: 60, 6: 140, 7: 280, 8: 630}


def table_run(work: Path, seed: int, state: dict) -> list[tuple[int, str]]:
    return [cli(["table", str(TABLE_N[0]), str(TABLE_N[-1]), "--seed", str(seed + k), "--json"])
            for k in range(TABLE_SEEDS)]


def table_facts(work: Path, seed: int, state: dict, raw) -> dict:
    rows = []
    for k, (code, stdout) in enumerate(raw):
        for r in (json.loads(stdout) if code == 0 else []):
            rows.append([seed + k, r["n"], r["perturbed_count"], r["random_count"], r["bound"]])
    return {"exits": [code for code, _ in raw], "rows": rows}


def table_check(facts: dict, seed: int) -> list[tuple[str, bool]]:
    checks = [("exits", facts["exits"] == [0] * TABLE_SEEDS),
              ("rows", [(s, n) for s, n, *_ in facts["rows"]]
               == [(seed + k, n) for k in range(TABLE_SEEDS) for n in TABLE_N])]
    for s, n, perturbed, random_count, bound in facts["rows"]:
        checks += [
            (f"seed{s}.n{n}.perturbed", perturbed == TABLE_GENERIC[n]),
            (f"seed{s}.n{n}.bound", bound == comb(2 * n + 2, n + 2)),
            (f"seed{s}.n{n}.random", 0 <= random_count <= bound),
        ]
    return checks


# -- beta ----------------------------------------------------------------------

BETA_ARGV = ["beta", "5", "--allow-large", "--json"]
BETA_VALUE = 408
BETA_STDOUT_SHA = "3af4541c39017a2debd9cd54f6475c57a39906eb26f55bd4f373db5ffa47d4af"


def beta_run(work: Path, seed: int, state: dict) -> tuple[int, str]:
    return cli(BETA_ARGV)


def beta_facts(work: Path, seed: int, state: dict, raw) -> dict:
    code, stdout = raw
    return {"exit": code, "beta": json.loads(stdout)["beta"] if code == 0 else None,
            "stdout_sha": sha256(stdout)}


def beta_check(facts: dict, seed: int) -> list[tuple[str, bool]]:
    return [("exit", facts["exit"] == 0), ("beta", facts["beta"] == BETA_VALUE),
            ("stdout_sha", facts["stdout_sha"] == BETA_STDOUT_SHA)]


def _no_setup(work: Path, seed: int) -> dict:
    return {}


# name -> (setup, run, facts, check)
WORKLOADS = {
    "enum": (enum_setup, enum_run, enum_facts, enum_check),
    "suite": (_no_setup, suite_run, suite_facts, suite_check),
    "table": (_no_setup, table_run, table_facts, table_check),
    "beta": (_no_setup, beta_run, beta_facts, beta_check),
}
