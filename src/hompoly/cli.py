"""Command-line interface.

Subcommands: construct, vertices, count, beta, sigma, table, verify,
dual, intersect.  Every subcommand takes --json for machine-readable
output carrying exactly the same numbers as the text form; identical
command lines produce byte-identical JSON.  Exit codes: 0 success (all
verifications passed), 1 verification failure, 2 usage or input error.

Heavy enumerations are gated by the modules that build the systems:
`polytope.standard` refuses a spec of more than 256 vertices or facets
(cube:40 has 2^40), `homs.check_size` a hom over 95 rows or dimension
15 (interactive) or a claim's fixed budget of 128 rows and dimension 20.
construct meets the interactive gate before it builds the hom's rows.

| path | spec gate (256) | DD gate |
| --- | --- | --- |
| construct | yes, unless --allow-large | interactive, unless --allow-large |
| dual, intersect | yes, unless --allow-large | none |
| vertices | - | interactive, unless --allow-large |
| count --enumerate | yes, unless --allow-large | interactive, unless --allow-large |
| verify --claim, --suite | always | claim budget, always |

beta refuses n > 5 (exit 2); --allow-large is accepted there and has no effect.
--threads (or HOMPOLY_THREADS, an integer >= 1) controls worker
processes for suite runs, at most one per claim; results are
independent of the thread count.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections import Counter

from . import counts as counts_mod
from . import experiments, jsonio, verify
from .errors import UnboundedPolytopeError
from .homs import INTERACTIVE_LIMIT, build_hom, check_size, map_rank, vertex_maps_from_rows
from .polytope import SPEC_SIZE_GUARD, STANDARD_KINDS, Polytope, intersect, polar_dual, standard


def _load_json(path: str):
    """The JSON value in the file at `path`; nesting too deep for the
    parser is an input error, not a crash."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON in {path!r} is nested too deeply") from None


def parse_polytope_spec(spec: str, allow_large: bool = False) -> tuple[dict, Polytope]:
    """Parse "simplex:3", "cube:2", "crosspolytope:4", or "file:PATH"; a
    standard one is built by `standard`, gated unless `allow_large`."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"bad polytope spec {spec!r}; expected kind:arg")
    if kind in STANDARD_KINDS:
        try:
            n = int(arg)
        except ValueError:
            raise ValueError(f"bad dimension in spec {spec!r}") from None
        return {"kind": kind, "n": n}, standard(kind, n, allow_large)
    if kind == "file":
        return {"kind": "file", "path": arg}, jsonio.polytope_from_json(_load_json(arg))
    raise ValueError(f"unknown polytope kind {kind!r}")


def _emit(args, payload, text_lines):
    if args.json:
        sys.stdout.write(jsonio.dumps_canonical(payload))
    else:
        for line in text_lines:
            print(line)


def _emit_built(args, payload, summary, text_lines):
    """Output of a command that builds one object: with --out, write its
    JSON there and print the summary; without, --json prints the object
    itself."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(jsonio.dumps_canonical(payload))
    elif args.json:
        summary = payload
    _emit(args, summary, text_lines)


def cmd_construct(args) -> int:
    src_desc, P = parse_polytope_spec(args.source, args.allow_large)
    tgt_desc, Q = parse_polytope_spec(args.target, args.allow_large)
    # the hom has a row per (source vertex, target facet) in dimension n(m+1)
    check_size(Q.ambient_dim * (P.ambient_dim + 1), P.n_vertices * Q.n_facets,
               None if args.allow_large else INTERACTIVE_LIMIT)
    H = build_hom(P, Q)
    _emit_built(args, jsonio.hom_to_json(H, src_desc, tgt_desc),
                {"ambient_dim": H.ambient_dim, "inequalities": len(H.rows)},
                [f"dimension {H.ambient_dim}", f"inequalities {len(H.rows)}"])
    return 0


def cmd_vertices(args) -> int:
    rows, m, n, ambient = jsonio.hom_system_from_json(_load_json(args.hom))
    check_size(ambient, len(rows), None if args.allow_large else INTERACTIVE_LIMIT)
    maps = vertex_maps_from_rows(rows, ambient, m, n)
    payload: dict = {"count": len(maps)}
    lines = [f"vertex maps: {len(maps)}"]
    ranks = None
    if args.out:
        with open(args.out, "w") as fh:
            ranks = jsonio.write_maps(fh, maps)
    if args.ranks:
        hist = dict(sorted(Counter(map(map_rank, maps) if ranks is None else ranks).items()))
        payload["rank_histogram"] = {str(k): v for k, v in hist.items()}
        lines.append("rank histogram: " + ", ".join(f"{k}: {v}" for k, v in hist.items()))
    if args.out:
        lines.append(f"wrote {len(maps)} maps to {args.out}")
    _emit(args, payload, lines)
    return 0


def cmd_count(args) -> int:
    family = args.family
    if family == "intersection-bound":
        value = counts_mod.intersection_bound(args.m)
        _emit(args, {"family": family, "n": args.m, "bound": value}, [str(value)])
        return 0
    if args.n is None:
        raise ValueError(f"family {family!r} needs both m and n")
    if family == "box-diamond-bound":
        value = counts_mod.bound_box_diamond(args.m, args.n)
        _emit(args, {"family": family, "m": args.m, "n": args.n, "lower_bound": value},
              [str(value)])
        return 0
    report = counts_mod.COUNT_FAMILIES[family][2](args.m, args.n)
    if args.enumerate:
        report.enumerated = verify.enumerated_count(
            family, args.m, args.n, None if args.allow_large else INTERACTIVE_LIMIT)
    payload = jsonio.count_report_to_json(report)
    lines = [f"{family}({args.m},{args.n}) closed form: {report.closed_form}"]
    for key, val in sorted(report.terms.items()):
        lines.append(f"  {key}: {val}")
    if report.enumerated is not None:
        lines.append(f"enumerated: {report.enumerated} "
                     f"({'agrees' if report.agreement else 'DISAGREES'})")
    _emit(args, payload, lines)
    return 1 if report.agreement is False else 0


def cmd_beta(args) -> int:
    value = counts_mod.beta(args.n)
    _emit(args, {"n": args.n, "beta": value}, [str(value)])
    return 0


def cmd_sigma(args) -> int:
    value = counts_mod.sigma(args.m, args.n)
    _emit(args, {"m": args.m, "n": args.n, "sigma": value}, [str(value)])
    return 0


def cmd_table(args) -> int:
    eps = jsonio.str_to_rat(args.eps)
    rows = experiments.reproduce_table(args.n_min, args.n_max, args.seed, eps=eps)
    payload = jsonio.table_to_json(rows)
    lines = [f"{'n':>3} {'perturbed':>10} {'random':>8} {'bound':>10} {'pct':>8}"]
    for r in rows:
        lines.append(f"{r.n:>3} {r.perturbed_count:>10} {r.random_count:>8} "
                     f"{r.bound:>10} {r.percent:>7.4g}%")
    lines.append("pct is display-only; all comparisons are exact")
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    if args.list:
        payload = sorted(verify.CLAIMS)
        _emit(args, payload, payload)
        return 0
    if args.claim:
        results = [verify.run_claim(args.claim, verify.parse_params(args.claim, args.param))]
    else:
        results = verify.run_suite(args.suite, threads=args.threads)
    payload = [jsonio.result_to_json(r, include_timing=args.timings) for r in results]
    lines = []
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.claim_id} {r.parameters}")
        if not r.passed:
            lines.append(f"       witness: {r.witness}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} claims passed")
    _emit(args, payload, lines)
    return 1 if n_fail else 0


def cmd_dual(args) -> int:
    _, P = parse_polytope_spec(args.polytope, args.allow_large)
    D = polar_dual(P)
    _emit_built(args, jsonio.polytope_to_json(D),
                {"vertices": D.n_vertices, "facets": D.n_facets},
                [f"dual has {D.n_vertices} vertices, {D.n_facets} facets"])
    return 0


def cmd_intersect(args) -> int:
    _, P = parse_polytope_spec(args.first, args.allow_large)
    _, Q = parse_polytope_spec(args.second, args.allow_large)
    K = intersect(P, Q)
    _emit_built(args, jsonio.polytope_to_json(K, include_hrep=not K.is_empty),
                {"vertices": K.n_vertices, "dim": K.dim},
                [f"intersection: {K.n_vertices} vertices, dim {K.dim}"])
    return 0


def _thread_count(text: str) -> int:
    """A worker count from --threads or HOMPOLY_THREADS: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


_SPEC_GUARD_HELP = f"build standard polytopes of more than {SPEC_SIZE_GUARD} vertices or facets"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hompoly",
        description="Exact construction and enumeration of polytopes of affine maps")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    default_threads = os.cpu_count() or 1
    env_threads = os.environ.get("HOMPOLY_THREADS")
    if env_threads is not None:
        try:
            default_threads = _thread_count(env_threads)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"HOMPOLY_THREADS {exc}") from None

    p = sub.add_parser("construct", help="build a mapping polytope inequality system")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--out", help="write hom JSON here")
    p.add_argument("--allow-large", action="store_true",
                   help=_SPEC_GUARD_HELP + f", and homs of more than {INTERACTIVE_LIMIT[1]} "
                   f"rows or dimension {INTERACTIVE_LIMIT[0]}")

    p = sub.add_parser("vertices", help="enumerate vertex maps of a hom JSON file")
    p.add_argument("hom")
    p.add_argument("--ranks", action="store_true", help="print the rank histogram")
    p.add_argument("--out", help="write maps JSON here")
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("count", help="closed-form counts and bounds")
    p.add_argument("family", choices=[*counts_mod.COUNT_FAMILIES, "box-diamond-bound",
                                      "intersection-bound"])
    p.add_argument("m", type=int)
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--enumerate", action="store_true",
                   help="cross-check against an enumeration run")
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("beta", help="orbit count of centered simplex tuples")
    p.add_argument("n", type=int)
    p.add_argument("--allow-large", action="store_true",
                   help="no effect; beta needs no gate up to its limit n = 5")

    p = sub.add_parser("sigma", help="signed surjection count")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("table", help="simplex intersection experiment table")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--eps", default="1/1000", help="perturbation size (rational)")

    p = sub.add_parser("verify", help="run verification claims")
    p.add_argument("--claim", help="single claim id")
    p.add_argument("--param", action="append", default=[],
                   help="claim parameter key=value (repeatable)")
    p.add_argument("--suite", choices=["core", "extended"], default="core")
    p.add_argument("--list", action="store_true", help="list registered claims")
    p.add_argument("--threads", type=_thread_count, default=default_threads,
                   help="worker processes for --suite (at most one per claim)")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed seconds in JSON output")

    p = sub.add_parser("dual", help="polar dual of a polytope")
    p.add_argument("polytope")
    p.add_argument("--out")
    p.add_argument("--allow-large", action="store_true", help=_SPEC_GUARD_HELP)

    p = sub.add_parser("intersect", help="intersection of two polytopes")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out")
    p.add_argument("--allow-large", action="store_true", help=_SPEC_GUARD_HELP)

    for name, p in sub.choices.items():
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr)
        return args.func(args)
    except (ValueError, ZeroDivisionError, UnboundedPolytopeError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
