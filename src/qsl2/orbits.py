"""Parabolic orbit combinatorics on Grassmannians.

A composition d = (d_1, ..., d_l) determines a flag-stabilizer subgroup
acting on the Grassmannian of r-planes in C^d; the orbits at level r are
indexed by integer tuples (r_1, ..., r_l) with 0 <= r_k <= d_k summing
to r.  Closure of orbits is prefix-sum dominance: s lies in the closure
of r exactly when every prefix of s sums to at least the corresponding
prefix of r, because intersection dimensions with the reference flag can
only jump up under specialization.

orbit_dim comes from the iterated fibration of an orbit over a product
of Grassmannians: sum r_k (d_k - r_k) for the fibers within blocks, plus
sum over i < j of r_j (d_i - r_i) for the relative positions.  Every
vector, table and matrix is ordered by _level alone (linear_extension):
by this dimension, ties broken lexicographically, which refines the
closure order since a proper closure drops the dimension.  _level is
the one memo of a level: its order, the dimensions and each index's
position, which vectors, tables and splits all read.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

from .errors import AmbientMismatchError, TotalMismatchError

__all__ = [
    "Composition",
    "OrbitIndex",
    "check_composition",
    "check_index",
    "check_level",
    "closure_leq",
    "prefix_sums",
    "prefix_dominates",
    "orbit_dim",
    "cell_count",
    "dense_cell",
    "linear_extension",
    "covering_relations",
    "poset_json_obj",
    "poset_dot",
]

Composition = tuple[int, ...]
OrbitIndex = tuple[int, ...]


def format_index(idx: OrbitIndex) -> str:
    return "(" + ",".join(map(str, idx)) + ")"


def check_composition(d: Composition) -> Composition:
    d = tuple(d)
    if not d:
        raise ValueError(f"not a composition: {d!r}")
    for x in d:
        if type(x) is not int or x < 0:
            raise ValueError(f"not a composition: {d!r}")
    return d


def check_index(d: Composition, r: OrbitIndex) -> OrbitIndex:
    r = tuple(r)
    if len(r) != len(d):
        raise AmbientMismatchError(f"index {r} has wrong length for ambient {d}")
    for x, dk in zip(r, d):
        if type(x) is not int or not 0 <= x <= dk:
            raise ValueError(f"index {r} out of range for ambient {d}")
    return r


def check_level(d: Composition, r: int) -> None:
    """Reject a weight level that is not an int in 0 <= r <= sum(d)."""
    if type(r) is not int or not 0 <= r <= sum(d):
        raise ValueError(f"level {r!r} out of range for {d}")


def prefix_sums(r: OrbitIndex) -> tuple[int, ...]:
    """The running sums r_1, r_1 + r_2, ... that the closure order compares."""
    return tuple(accumulate(r))


def prefix_dominates(ps: tuple[int, ...], pr: tuple[int, ...]) -> bool:
    """The closure test on prefix sums of two indices of one level: every
    entry of ps is at least the matching entry of pr."""
    return all(a >= b for a, b in zip(ps, pr))


def closure_leq(d: Composition, s: OrbitIndex, r: OrbitIndex) -> bool:
    """True when the orbit of s is contained in the closure of the orbit
    of r: every prefix sum of s is at least that of r.  One pass keeps
    the running difference of the two prefix sums, which must never go
    negative and must end at zero (equal totals, else an error)."""
    d = check_composition(d)
    s = check_index(d, s)
    r = check_index(d, r)
    diff = 0
    dominates = True
    for a, b in zip(s, r):
        diff += a - b
        if diff < 0:
            dominates = False
    if diff:
        raise TotalMismatchError(f"indices {s} and {r} have different totals")
    return dominates


def orbit_dim(d: Composition, r: OrbitIndex) -> int:
    d = check_composition(d)
    return _orbit_dim(d, check_index(d, r))


def _orbit_dim(d: Composition, r: OrbitIndex) -> int:
    """orbit_dim on checked arguments, not memoized (see _level); room
    is the running sum of d_i - r_i over the slots before slot k."""
    dim = room = 0
    for rk, dk in zip(r, d):
        dim += rk * (dk - rk + room)
        room += dk - rk
    return dim


def cell_count(d: Composition, r: OrbitIndex) -> int:
    """Number of Borel orbits inside the parabolic orbit of r."""
    d = check_composition(d)
    r = check_index(d, r)
    out = 1
    for rk, dk in zip(r, d):
        out *= math.comb(dk, rk)
    return out


def dense_cell(d: Composition, r: OrbitIndex) -> OrbitIndex:
    """The binary refinement of r that is open dense in its orbit: within
    block k, d_k - r_k zeros then r_k ones.  It is the unique dimension
    maximizer among binary refinements of r."""
    d = check_composition(d)
    r = check_index(d, r)
    out: list[int] = []
    for rk, dk in zip(r, d):
        out.extend([0] * (dk - rk))
        out.extend([1] * rk)
    return tuple(out)


def _indices_at_level(d: Composition, r: int) -> list[OrbitIndex]:
    """The compositions of r bounded by d, in lexicographic order, built
    slot by slot: slot k takes at least what the later slots cannot hold
    and at most d_k, and the last slot takes the rest, so no index off
    the level is ever formed."""
    if r < 0 or r > sum(d):
        return []
    # after[k] = d_(k+1) + ... + d_l, the most the later slots can hold
    after = list(accumulate(reversed(d[1:])))[::-1]
    rows: list[tuple[OrbitIndex, int]] = [((), r)]
    for dk, room in zip(d, after):
        rows = [
            (head + (x,), left - x)
            for head, left in rows
            for x in range(max(0, left - room), min(dk, left) + 1)
        ]
    return [head + (left,) for head, left in rows]


def linear_extension(d: Composition, r: int) -> list[OrbitIndex]:
    """All level-r indices, smallest closure first: sorted by orbit_dim
    ascending with lexicographic tie-break.  Deterministic, and a linear
    extension of closure_leq.  Each call returns a fresh list."""
    return list(_level(check_composition(d), r)[0])


@lru_cache(maxsize=None)
def _level(
    d: Composition, r: int
) -> tuple[tuple[OrbitIndex, ...], tuple[int, ...], dict[OrbitIndex, int]]:
    """(order, dims, position) of level r, memoized on a checked
    composition: order is linear_extension(d, r), dims the orbit
    dimensions by position, each computed once by the sort, and position
    maps each index of order to its position (read-only).  The one memo
    of a level: vectors sort by it, and tables and splits on this order
    share its position map."""
    ranked = sorted((_orbit_dim(d, idx), idx) for idx in _indices_at_level(d, r))
    order = tuple(idx for _, idx in ranked)
    dims = tuple(dim for dim, _ in ranked)
    return order, dims, {idx: i for i, idx in enumerate(order)}


def covering_relations(d: Composition, r: int) -> list[tuple[OrbitIndex, OrbitIndex]]:
    """Pairs (s, t) with s strictly below t and nothing strictly between,
    sorted by the positions of s and t in the linear extension.

    Everything strictly below t comes before t in the linear extension,
    so t's down-set is read off its prefix sums against those of the
    earlier indices.  Walking that down-set from the top, s covers t
    unless it lies below a cover already found."""
    elems = linear_extension(d, r)
    sums = [prefix_sums(idx) for idx in elems]
    below: list[set[int]] = []
    covers = []
    for j, top in enumerate(sums):
        down = {i for i in range(j) if prefix_dominates(sums[i], top)}
        below.append(down)
        reached: set[int] = set()
        for i in sorted(down, reverse=True):
            if i not in reached:
                covers.append((i, j))
                reached |= below[i]
    covers.sort()
    return [(elems[i], elems[j]) for i, j in covers]


def poset_json_obj(d: Composition, r: int) -> dict:
    elems = linear_extension(d, r)
    return {
        "d": list(d),
        "r": r,
        "elements": [list(idx) for idx in elems],
        "orbit_dim": [orbit_dim(d, idx) for idx in elems],
        "cell_count": [cell_count(d, idx) for idx in elems],
        "covers": [[list(s), list(t)] for s, t in covering_relations(d, r)],
    }


def poset_dot(d: Composition, r: int) -> str:
    lines = [f"digraph closure_d{'_'.join(map(str, d))}_r{r} {{"]
    for idx in linear_extension(d, r):
        node = format_index(idx)
        lines.append(f'  "{node}" [label="{node} dim={orbit_dim(d, idx)}"];')
    for s, t in covering_relations(d, r):
        lines.append(f'  "{format_index(s)}" -> "{format_index(t)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# This module's lru_cache functions, held for qsl2.clear_caches.
_MEMOS = (_level,)
