"""The exit-code contract on hostile input files and claim parameters.

Valid hom and polytope files are mutated by dropping keys, changing
list lengths, replacing values by values of other types, making
`insertion_order` no permutation and putting huge numbers where
numbers go.  `vertices` and `dual` must answer each mutated file with
exit 0 (it still describes a system) or 2 (bad input), never an
uncaught exception, and each within the per-example deadline.

Claims get oversized `m`, `n` and `k` with valid kinds and families:
`verify --claim` must refuse each with exit 2 within 1 s, before it
builds anything large.
"""

import contextlib
import inspect
import io
import json
import time
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hompoly import cli, verify  # noqa: E402
from hompoly.counts import COUNT_FAMILIES  # noqa: E402
from hompoly.polytope import STANDARD_KINDS  # noqa: E402

# the polytope file of the CI checks: a quadrilateral listing a vertex
# twice and an interior point
QUAD = {"ambient_dim": 2, "vertices": [["1/3", "0"], ["-1/2", "1/5"], ["0", "-2/7"],
                                       ["1/4", "1/4"], ["1/3", "0"], ["0", "0"]]}

OTHER_TYPES = [None, True, False, 0, -1, 1.5, "", "x", "1e3", [], [[]], {}, {"normal": []}]


def _paths(node, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON value."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _huge_number(draw, like):
    """A number far outside the valid files' sizes: a JSON int for an int,
    else a string inside the number grammar -?[0-9]{1,4300}(/[0-9]{1,4300})?"""
    digits = draw(st.sampled_from([19, 300, 4300]))
    if type(like) is int:
        return draw(st.sampled_from([1, -1])) * 10 ** (digits - 1)
    num = draw(st.sampled_from(["", "-"])) + "9" * digits
    return draw(st.sampled_from([num, num + "/7", "1/" + "9" * digits, num + "/" + "8" * digits]))


@st.composite
def mutated(draw, base):
    """`base` after one to three mutations, each at a drawn place."""
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        kind = draw(st.sampled_from(["drop", "length", "type", "order", "huge"]))
        if kind == "drop":
            keyed = [p for p in paths if p and isinstance(_get(data, p[:-1]), dict)]
            if keyed:
                path = draw(st.sampled_from(keyed))
                del _get(data, path[:-1])[path[-1]]
        elif kind == "length":
            lists = [p for p in paths if isinstance(_get(data, p), list)]
            if lists:
                items = _get(data, draw(st.sampled_from(lists)))
                if items and draw(st.booleans()):
                    items.pop(draw(st.integers(0, len(items) - 1)))
                else:
                    items.append(json.loads(json.dumps(items[0])) if items else "0")
        elif kind == "type":
            path = draw(st.sampled_from(paths))
            value = json.loads(json.dumps(draw(st.sampled_from(OTHER_TYPES))))
            if path:
                _get(data, path[:-1])[path[-1]] = value
            else:
                data = value
        elif kind == "order":
            order = data.get("insertion_order") if isinstance(data, dict) else None
            if isinstance(order, list) and order:
                k = draw(st.integers(0, len(order) - 1))
                order[k] = draw(st.sampled_from(
                    [order[k - 1], -1, len(order), True, 1.0, str(order[k])]))
        else:
            numbers = [p for p in paths if p and type(_get(data, p)) in (int, str)
                       and str(_get(data, p)).lstrip("-").replace("/", "").isdigit()]
            if numbers:
                path = draw(st.sampled_from(numbers))
                _get(data, path[:-1])[path[-1]] = _huge_number(draw, _get(data, path))
    return data


def _exit_code(argv):
    """cli.main's return value, its output kept off the terminal."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding the hom file of cube:2 -> crosspolytope:2 as
    `construct` writes it."""
    root = tmp_path_factory.mktemp("exit-codes")
    assert _exit_code(["construct", "cube:2", "crosspolytope:2",
                       "--out", str(root / "hom.json")]) == 0
    return root


# 60 examples each: the two tests take about 3 s together
FUZZ = settings(max_examples=60, deadline=timedelta(seconds=2))


@FUZZ
@given(data=st.data())
def test_mutated_hom_file_exits_0_or_2(files, data):
    base = json.loads((files / "hom.json").read_text())
    path = files / "mutated-hom.json"
    path.write_text(json.dumps(data.draw(mutated(base))))
    assert _exit_code(["vertices", str(path), "--ranks", "--json"]) in (0, 2)


@FUZZ
@given(poly=mutated(QUAD))
def test_mutated_polytope_file_exits_0_or_2(files, poly):
    path = files / "mutated-quad.json"
    path.write_text(json.dumps(poly))
    assert _exit_code(["dual", f"file:{path}", "--json"]) in (0, 2)


@st.composite
def oversized_claim(draw):
    """`verify --claim` arguments: a claim id, its `m`, `n` and `k` each
    in 9 .. 10^30, valid kinds and families, and any other parameter a
    value of its type."""
    claim_id = draw(st.sampled_from(sorted(verify.CLAIMS)))
    argv = ["verify", "--claim", claim_id]
    for name, param in inspect.signature(verify.CLAIMS[claim_id]).parameters.items():
        if name in ("m", "n", "k"):
            # half the draws within reach of the spec guard, which
            # simplex:9 to simplex:255 pass
            value = draw(st.one_of(st.integers(9, 300), st.integers(9, 10 ** 30)))
        elif name in ("source", "target"):
            value = draw(st.sampled_from(STANDARD_KINDS))
        elif name == "family":
            value = draw(st.sampled_from(sorted(COUNT_FAMILIES)))
        elif param.annotation == "bool":
            value = draw(st.sampled_from(["true", "false"]))
        else:
            value = draw(st.integers(0, 10 ** 6))
        argv += ["--param", f"{name}={value}"]
    return argv


@FUZZ
@given(argv=oversized_claim())
def test_oversized_claim_parameters_exit_2(argv):
    start = time.perf_counter()
    assert _exit_code(argv) == 2
    assert time.perf_counter() - start < 1
