"""Canonical JSON forms for every value that crosses the CLI boundary.

Rationals serialize as the canonical string "p/q", or "p" alone when
the denominator is 1.  All object keys are emitted sorted and vertex /
inequality lists are in canonical order, so identical inputs always
produce byte-identical JSON.

`dumps_canonical` writes every output but the maps file of `vertices
--out`, which `write_maps` streams map by map with the same bytes.  It
fills each map's text in from the integers of its ray (t, t b, rows of
t A; see `homs.AffineMap`), each coordinate string of x = c / t read
off gcd(c, t), and takes the rank from `homs.map_rank` on the rows of
t A it read, so no Fraction, dict or payload list is made on the way
from the kernel to the file and the ray is sliced once.  Facet and hom
rows hold ints (see `polytope`), which `rat_to_str` writes without a
Fraction.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import TYPE_CHECKING

from .homs import AffineMap, HomPolytope, map_rank, structured_row_order
from .linalg import Vec
from .polytope import Polytope, from_inequalities, from_points

if TYPE_CHECKING:
    from .counts import CountReport
    from .verify import VerificationResult


def rat_to_str(x) -> str:
    if type(x) is int:  # the entries of integer facet and hom rows
        return str(x)
    if type(x) is not Fraction:  # a Fraction is already in lowest terms
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# an optional minus, then digits and an optional "/digits", each part at
# most 4,300 digits (CPython's default cap on int strings, which not every
# 3.10 build enforces)
_RATIONAL = re.compile(r"-?[0-9]{1,4300}(/[0-9]{1,4300})?")


def str_to_rat(s: str) -> Fraction:
    """The rational of an int (not a bool) or of a string "p" or "p/q".

    Anything else raises ValueError: exponents, decimals, underscores,
    spaces, a sign on the denominator, a zero denominator.
    """
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not (isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise ValueError(f"expected a rational string, got {s!r}")
    num, _, den = s.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den or 1))


def vec_to_json(v: Vec) -> list[str]:
    return [rat_to_str(x) for x in v]


def json_to_vec(data, length: int | None = None) -> Vec:
    if not isinstance(data, list):
        raise ValueError(f"expected a list of rationals, got {data!r}")
    if length is not None and len(data) != length:
        raise ValueError(f"expected {length} coordinates, got {len(data)}")
    return tuple(str_to_rat(x) for x in data)


def _rows_to_json(rows):
    return [{"normal": vec_to_json(n), "offset": rat_to_str(c)} for n, c in rows]


def _rows_from_json(data, dim: int):
    if not isinstance(data, list):
        raise ValueError(f"expected a list of rows, got {data!r}")
    out = []
    for r in data:
        if not isinstance(r, dict) or "normal" not in r or "offset" not in r:
            raise ValueError(f"row needs a 'normal' and an 'offset': {r!r}")
        out.append((json_to_vec(r["normal"], dim), str_to_rat(r["offset"])))
    return out


def _require_object(data, keys, what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} JSON lacks {key!r}")


def _dim(data, key: str) -> int:
    d = data[key]
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise ValueError(f"{key} must be a nonnegative integer, got {d!r}")
    return d


def polytope_to_json(P: Polytope, include_hrep: bool = True) -> dict:
    out: dict = {"ambient_dim": P.ambient_dim,
                 "vertices": [vec_to_json(v) for v in P.vertices]}
    if include_hrep:
        h = P.hrep
        out["inequalities"] = _rows_to_json(h.inequalities)
        out["equations"] = _rows_to_json(h.equations)
    return out


def polytope_from_json(data: dict) -> Polytope:
    """Polytope from its JSON form, validated like any other input.

    The listed points go through `from_points`, so points that are not
    vertices (interior points, duplicates) are dropped, and the rows go
    through `from_inequalities`.  When both are given they must describe
    the same polytope; a mismatch raises ValueError.  Either way the
    result's `hrep` is its facets, so redundant rows are not kept.
    """
    _require_object(data, ("ambient_dim",), "polytope")
    ambient = _dim(data, "ambient_dim")
    has_v = "vertices" in data
    has_h = "inequalities" in data or "equations" in data
    if not (has_v or has_h):
        raise ValueError("polytope JSON needs 'vertices' or 'inequalities'")
    if has_v:
        if not isinstance(data["vertices"], list):
            raise ValueError("polytope 'vertices' must be a list")
        P = from_points([json_to_vec(v, ambient) for v in data["vertices"]], ambient)
        if not has_h:
            return P
    Q = from_inequalities(_rows_from_json(data.get("inequalities", []), ambient),
                          _rows_from_json(data.get("equations", []), ambient), ambient)
    if not has_v:
        return Q
    if Q != P:
        raise ValueError("polytope JSON: 'vertices' and the inequalities describe "
                         "different polytopes")
    return P


def _ray_str(c: int, t: int) -> str:
    """`rat_to_str(Fraction(c, t))` for integers c and t >= 1."""
    g = gcd(c, t)
    if g == t:
        return str(c // t)
    return f"{c // g}/{t // g}"


def _array(items: list[str], indent: int) -> str:
    """`json.dumps(..., indent=2)` of a list whose items' texts are
    given, for a list that starts `indent` spaces in."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


@lru_cache
def _map_template(m: int, n: int) -> str:
    """The text of one map R^m -> R^n in the maps file, as a `str.format`
    template: a quoted field per entry of A, row by row, then of b, and
    a bare field for the rank."""
    A = _array([_array(['"{}"'] * m, 6)] * n, 4)
    return ('  {{\n    "A": ' + A + ',\n    "b": ' + _array(['"{}"'] * n, 4)
            + ',\n    "rank": {}\n  }}')


def write_maps(fh, maps: Iterable[AffineMap]) -> list[int]:
    """Write `dumps_canonical` of the maps' list of {"A", "b", "rank"}
    objects to `fh`, map by map, and return the maps' ranks.

    Each map's text is filled in from the integers of its ray (`str` of
    each entry when t = 1, `_ray_str` otherwise) and its rank from
    `map_rank` on the rows of t A.  Every string written matches
    -?[0-9]+(/[0-9]+)?, so none needs escaping.
    """
    ranks = []
    sep = "[\n"
    for f in maps:
        t, b, rows = f.parts
        rank = map_rank(f, rows)
        ranks.append(rank)
        entries = chain(*rows, b)
        if t != 1:
            entries = [_ray_str(c, t) for c in entries]
        fh.write(sep + _map_template(f.source_dim, f.target_dim).format(*entries, rank))
        sep = ",\n"
    fh.write("\n]\n" if ranks else "[]\n")
    return ranks


def hom_to_json(H: HomPolytope, source_desc: dict, target_desc: dict) -> dict:
    return {
        "source": source_desc,
        "target": target_desc,
        "source_dim": H.source_dim,
        "target_dim": H.target_dim,
        "ambient_dim": H.ambient_dim,
        "coordinate_convention": "b first, then A row-major",
        "inequalities": _rows_to_json(H.rows),
        "pairs": [list(p) for p in H.pairs],
        "insertion_order": structured_row_order(H),
    }


def hom_system_from_json(data: dict) -> tuple[list, int, int, int]:
    """Inequality rows of a hom JSON file (`hom_to_json`), in insertion order.

    Returns (rows, source_dim, target_dim, ambient_dim).  The rows come
    in the file's `insertion_order` when it has one, which must be a
    permutation of the row indices, and in file order otherwise; the DD
    kernel inserts them in the order returned.  The order changes only
    the running time of `vertices`, not its output.
    """
    keys = ("source_dim", "target_dim", "ambient_dim", "inequalities")
    _require_object(data, keys, "hom")
    m, n, ambient = (_dim(data, key) for key in keys[:3])
    if ambient != n * (m + 1):
        raise ValueError(f"ambient_dim {ambient} is not target_dim * (source_dim + 1)")
    rows = _rows_from_json(data["inequalities"], ambient)
    if "insertion_order" in data:
        order = data["insertion_order"]
        if (not isinstance(order, list) or any(type(k) is not int for k in order)
                or sorted(order) != list(range(len(rows)))):
            raise ValueError(f"insertion_order must be a permutation of "
                             f"0..{len(rows) - 1}")
        rows = [rows[k] for k in order]
    return rows, m, n, ambient


def count_report_to_json(r: CountReport) -> dict:
    out = {
        "family": r.family,
        "m": r.m,
        "n": r.n,
        "closed_form": r.closed_form,
        "terms": dict(sorted(r.terms.items())),
    }
    if r.enumerated is not None:
        out["enumerated"] = r.enumerated
        out["agreement"] = r.agreement
    return out


def result_to_json(r: VerificationResult, include_timing: bool = False) -> dict:
    out: dict = {
        "claim": r.claim_id,
        "parameters": r.parameters,
        "status": r.status,
    }
    if r.witness is not None:
        out["witness"] = r.witness
    if include_timing:
        out["elapsed_seconds"] = round(r.elapsed, 3)
    return out


def table_to_json(rows) -> list[dict]:
    return [
        {
            "n": r.n,
            "perturbed_count": r.perturbed_count,
            "random_count": r.random_count,
            "bound": r.bound,
            "percent_display": r.percent,
        }
        for r in rows
    ]


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
