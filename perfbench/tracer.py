"""Spans around the public functions of each qsl2 layer, recorded from
outside the package.

`Tracer.install` replaces every binding of a listed function, in every
loaded qsl2 namespace, with one wrapper per function: `from .qring
import exact_div` in another module is a separate binding, and the
suites in `qsl2.verify.SUITES` are reached through that dict.  A span
is (name, start, end, parent); spans stay in memory in flat arrays and
`write` saves them when the process ends.  Functions the benchmark only
counts (the orbit helpers and the Laurent `+` and `*`) get a counter
instead of a span, because they run millions of times and have no
self-time metric.

`aggregate` reads span files back and computes per-name call counts,
self time (duration minus the time covered by direct child spans),
inclusive time and the duration of the first call in each process.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array

SPANNED = {
    "qring": ("exact_div", "quantum_binomial", "quantum_factorial", "quantum_integer"),
    "modules": (
        "gram_entry", "inner_product", "tensor", "act_E", "act_F", "act_K", "act_divided",
    ),
    "canonical": (
        "bar_involution", "canonical_basis", "compute_quasi_r",
        "split_expand", "embed_refine", "canonical_coords",
    ),
    "rmatrix": ("r_plus_pair", "r_minus_pair", "r_move", "matrix_in_basis"),
}
COUNTED = {"orbits": ("orbit_dim", "closure_leq", "check_index", "linear_extension")}
LAURENT_OPS = {"laurent_add": ("__add__", "__radd__"), "laurent_mul": ("__mul__", "__rmul__")}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counts: dict[str, list[int]] = {}

    def _spanned(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = (
            self.ids, self.parents, self.starts, self.ends, self.stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn, name: str):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the listed functions wherever a loaded qsl2 module binds
        them.  Import every module first so that no binding is missed."""
        for mod in ("qring", "orbits", "modules", "canonical", "rmatrix", "verify", "cli"):
            importlib.import_module(f"qsl2.{mod}")
        wrappers = {}
        for layers, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, fns in layers.items():
                module = sys.modules[f"qsl2.{mod}"]
                for fn in fns:
                    original = getattr(module, fn)
                    wrappers[id(original)] = make(original, f"{mod}.{fn}")
        for name, module in list(sys.modules.items()):
            if name != "qsl2" and not name.startswith("qsl2."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        suites = sys.modules["qsl2.verify"].SUITES
        for suite, fn in list(suites.items()):
            suites[suite] = self._spanned(fn, f"verify.{suite}")
        laurent = sys.modules["qsl2.qring"].Laurent
        for name, methods in LAURENT_OPS.items():
            wrapped = self._counted(getattr(laurent, methods[0]), f"qring.{name}")
            for method in methods:
                setattr(laurent, method, wrapped)

    def write(self, path: str) -> None:
        """One JSON header line, then the id, parent, start and end
        arrays back to back."""
        header = {
            "names": self.names,
            "n": len(self.ids),
            "counts": {k: v[0] for k, v in self.counts.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read(path: str):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for code in ("i", "i", "q", "q"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def aggregate(paths: list[str]) -> dict[str, dict]:
    """name -> {calls, self_s, s, first_call_s}.  Counters contribute
    calls only.  s sums inclusive durations, which is meaningful for the
    names that never nest inside themselves (compute_quasi_r and the
    suites); first_call_s is the median over processes of the first
    call's duration."""
    out: dict[str, dict] = {}
    firsts: dict[str, list[int]] = {}

    def entry(name: str) -> dict:
        return out.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})

    for path in paths:
        header, (ids, parents, starts, ends) = read(path)
        names = header["names"]
        for name, count in header["counts"].items():
            entry(name)["calls"] += count
        child = array("q", bytes(8 * len(ids)))
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(names)
        self_ns = [0] * len(names)
        incl_ns = [0] * len(names)
        first = [-1] * len(names)
        for i, nid in enumerate(ids):
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_ns[nid] += dur - child[i]
            incl_ns[nid] += dur
            if first[nid] < 0:
                first[nid] = dur
        for nid, name in enumerate(names):
            e = entry(name)
            e["calls"] += calls[nid]
            e["self_ns"] += self_ns[nid]
            e["incl_ns"] += incl_ns[nid]
            if first[nid] >= 0:
                firsts.setdefault(name, []).append(first[nid])
    return {
        name: {
            "calls": e["calls"],
            "self_s": e["self_ns"] / 1e9,
            "s": e["incl_ns"] / 1e9,
            "first_call_s": statistics.median(firsts[name]) / 1e9 if name in firsts else 0.0,
        }
        for name, e in out.items()
    }
