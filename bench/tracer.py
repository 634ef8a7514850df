"""Span tracer for hompoly's layer entry points, installed from outside.

The tracer wraps the public functions of each hompoly module (minus the
hot arithmetic leaves), the two lazy V/H conversions of `Polytope`, and
every claim in `verify.CLAIMS`.  A module that did `from .linalg import
rref` holds its own binding of the function, so every attribute of every
loaded `hompoly.*` module that *is* an original entry point is replaced,
not only the one in the defining module.  `uninstall` puts each original
back.

Each call records a span `[name, parent, start, end, outer]` in memory:
`parent` is the index of the enclosing span (-1 at top level), and
`outer` says that no span of the same module encloses it, so summing
outer spans gives a module's inclusive busy time without double counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("linalg", "dd", "polytope", "groups", "homs", "counts",
          "experiments", "verify", "jsonio", "cli")

# Arithmetic leaves called hundreds of thousands of times per workload;
# wrapping them would measure the tracer rather than the layer.
HOT_LEAVES = {
    "linalg": {"normalize", "vec", "zero_vec", "unit_vec", "dot", "add", "sub",
               "scale", "neg", "is_zero", "mat", "identity", "transpose",
               "mat_vec", "primitive"},
    "groups": {"identity_element", "compose", "inverse", "act_point", "act_tuple"},
    "jsonio": {"rat_to_str", "str_to_rat", "vec_to_json", "json_to_vec"},
}

# Private functions that are layer entry points all the same: the lazy
# conversions behind `Polytope.vertices` and `Polytope.hrep`.
PRIVATE_ENTRIES = {"polytope": ("_vertices_from_hrep", "_hrep_from_vertices")}

_MARK = "__bench_traced__"


def _dd_counts(counters, args, kwargs, result):
    rays = len(result)
    counters["dd.rows_in"] += len(args[0] if args else kwargs["rows"])
    counters["dd.rays_out"] += rays
    counters["dd.max_rays_out"] = max(counters["dd.max_rays_out"], rays)


def _json_bytes(counters, args, kwargs, result):
    counters["jsonio.bytes_out"] += len(result.encode())


# Counters updated from a call's arguments and result, keyed by span name.
OBSERVERS = {
    "dd.cone_extreme_rays": _dd_counts,
    "jsonio.dumps_canonical": _json_bytes,
}
COUNTERS = ("dd.rows_in", "dd.rays_out", "dd.max_rays_out", "jsonio.bytes_out")


class Tracer:
    """Wraps entry points on `install`, restores them on `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, depth = self.spans, self._stack, self._depth
        observe = OBSERVERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, depth[layer] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                depth[layer] -= 1
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _entry_points(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every layer entry point."""
        entries = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"hompoly.{layer}")
            if mod is None:
                continue
            skip = HOT_LEAVES.get(layer, set())
            names = [n for n, v in vars(mod).items()
                     if inspect.isfunction(v) and v.__module__ == mod.__name__
                     and not n.startswith("_") and n not in skip]
            names += PRIVATE_ENTRIES.get(layer, ())
            for n in names:
                fn = getattr(mod, n)
                entries[id(fn)] = (fn, self._wrap(fn, f"{layer}.{n}", layer))
        return entries

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        entries = self._entry_points()
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hompoly" or modname.startswith("hompoly.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = entries.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        verify = sys.modules.get("hompoly.verify")
        if verify is not None:
            for claim_id, fn in list(verify.CLAIMS.items()):
                self._undo.append((verify.CLAIMS, claim_id, fn))
                verify.CLAIMS[claim_id] = self._wrap(fn, f"verify.claim.{claim_id}", "verify")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as one JSON document: a name table and rows of
        [name index, parent, start, end] with times in seconds."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows, "counters": self.counters}, fh)

    def summary(self) -> dict[str, float]:
        """Per-layer calls, inclusive busy time, self time, and the named
        per-function figures, as a flat metric dict."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[3] - span[2]
        per_name_calls: dict[str, int] = {}
        per_name_busy: dict[str, float] = {}
        for i, (name, _parent, start, end, outer) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur - child_time[i]
            if outer:
                out[f"{layer}.busy_s"] += dur
            per_name_calls[name] = per_name_calls.get(name, 0) + 1
            per_name_busy[name] = per_name_busy.get(name, 0.0) + dur
        for name, calls in per_name_calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = per_name_busy[name]
        out.update(self.counters)
        out["trace.spans"] = len(self.spans)
        return out


def is_traced(fn) -> bool:
    return getattr(fn, _MARK, False)
