"""Tests for the benchmark's span tracer.

    python3 -m pytest -q bench/test_tracer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hompoly  # noqa: E402
from hompoly import dd, linalg, verify  # noqa: E402
from tracer import LAYERS, Tracer, is_traced  # noqa: E402
from workloads import cli, sha256  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every hompoly module, plus the claim registry."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "hompoly" or name.startswith("hompoly.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out.update({("CLAIMS", k): v for k, v in verify.CLAIMS.items()})
    return out


def test_from_imported_call_is_captured():
    square = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
    original = linalg.rref
    with Tracer() as tracer:
        assert dd.rref is not original and is_traced(dd.rref)
        vertices = dd.polytope_vertices(square, 2)
    assert len(vertices) == 4
    names = [s[0] for s in tracer.spans]
    assert names[0] == "dd.polytope_vertices"
    # dd did `from .linalg import rref`; the call through that binding is
    # a linalg span whose parent is a dd span.
    rref_spans = [s for s in tracer.spans if s[0] == "linalg.rref"]
    assert rref_spans
    assert all(tracer.spans[s[1]][0].startswith("dd.") for s in rref_spans)


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "diamond-center", "--param", "m=2", "--param", "n=2", "--json"],
    ["table", "3", "4", "--seed", "5", "--json"],
    ["beta", "3", "--json"],
    ["count", "diamond-simplex", "2", "2", "--enumerate", "--json"],
])
def test_tracing_changes_no_output(argv):
    plain = cli(argv)
    with Tracer() as tracer:
        traced = cli(argv)
    assert traced[0] == plain[0] == 0
    assert sha256(traced[1]) == sha256(plain[1])
    assert tracer.spans


def test_vertices_output_file_unchanged(tmp_path):
    hom = tmp_path / "hom.json"
    assert cli(["construct", "cube:2", "crosspolytope:2", "--out", str(hom)])[0] == 0
    digests = []
    for trace in (False, True):
        out = tmp_path / f"maps{int(trace)}.json"
        argv = ["vertices", str(hom), "--ranks", "--out", str(out), "--json"]
        if trace:
            with Tracer():
                code, stdout = cli(argv)
        else:
            code, stdout = cli(argv)
        assert code == 0
        digests.append((sha256(stdout), sha256(out.read_bytes())))
    assert digests[0] == digests[1]


def test_tracer_is_fully_undone():
    before = _bindings()
    tracer = Tracer().install()
    assert is_traced(hompoly.rank) and is_traced(verify.rank)
    assert is_traced(verify.CLAIMS["dim-formula"])
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(is_traced(v) for v in after.values())


def test_summary_self_times_add_up():
    with Tracer() as tracer:
        cli(["verify", "--claim", "face-law", "--param", "source=cube",
             "--param", "m=2", "--param", "n=2", "--json"])
    summary = tracer.summary()
    roots = sum(s[3] - s[2] for s in tracer.spans if s[1] < 0)
    total_self = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert summary["cli.busy_s"] == pytest.approx(roots, rel=1e-9)
    assert summary["verify.claim.face-law.calls"] == 1
    assert sum(summary[f"{layer}.calls"] for layer in LAYERS) == len(tracer.spans)
