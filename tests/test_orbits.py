"""Closure order, orbit dimensions, cell counts, dense refinements,
and the poset exports."""

import itertools
import math

import pytest

from qsl2 import compositions, orbits
from qsl2.errors import AmbientMismatchError, TotalMismatchError
from qsl2.orbits import (
    cell_count,
    check_composition,
    check_index,
    closure_leq,
    covering_relations,
    dense_cell,
    linear_extension,
    orbit_dim,
    poset_dot,
    poset_json_obj,
)


def test_composition_validation():
    assert check_composition((2, 2)) == (2, 2)
    assert check_composition([3]) == (3,)
    assert check_composition((0, 2, 0)) == (0, 2, 0)
    with pytest.raises(ValueError):
        check_composition(())
    with pytest.raises(ValueError):
        check_composition((2, -1))


def test_index_validation():
    assert check_index((2, 2), (1, 2)) == (1, 2)
    with pytest.raises(AmbientMismatchError):
        check_index((2, 2), (1,))
    with pytest.raises(ValueError):
        check_index((2, 2), (3, 0))
    with pytest.raises(ValueError):
        check_index((2, 2), (-1, 0))


def test_closure_order_anchors():
    d = (2, 2)
    assert closure_leq(d, (2, 0), (1, 1))
    assert closure_leq(d, (1, 1), (0, 2))
    assert closure_leq(d, (2, 0), (0, 2))
    assert not closure_leq(d, (0, 2), (2, 0))
    assert closure_leq(d, (1, 1), (1, 1))
    with pytest.raises(TotalMismatchError):
        closure_leq(d, (2, 0), (1, 2))


def test_closure_leq_matches_prefix_dominance_through_total_seven():
    for d in compositions(7):
        for r in range(sum(d) + 1):
            level = linear_extension(d, r)
            sums = [orbits.prefix_sums(idx) for idx in level]
            for s, ps in zip(level, sums):
                for t, pt in zip(level, sums):
                    assert closure_leq(d, s, t) == orbits.prefix_dominates(ps, pt), (d, s, t)
            if r < sum(d):
                with pytest.raises(TotalMismatchError):
                    closure_leq(d, level[0], linear_extension(d, r + 1)[-1])
                with pytest.raises(TotalMismatchError):
                    closure_leq(d, linear_extension(d, r + 1)[0], level[-1])


def test_closure_order_incomparable_pair():
    d = (1, 1, 1, 1)
    s, t = (1, 0, 0, 1), (0, 1, 1, 0)
    assert not closure_leq(d, s, t)
    assert not closure_leq(d, t, s)


def test_orbit_dim_anchors():
    assert orbit_dim((2, 2), (2, 0)) == 0
    assert orbit_dim((2, 2), (1, 1)) == 3
    assert orbit_dim((2, 2), (0, 2)) == 4
    # single block: the Grassmannian cell dimension r(d - r)
    for d in range(7):
        for r in range(d + 1):
            assert orbit_dim((d,), (r,)) == r * (d - r)


def _reference_orbit_dim(d, r):
    """The fibration sum as a double sum: sum r_k (d_k - r_k) within
    blocks plus sum over i < j of r_j (d_i - r_i) across them."""
    within = sum(rk * (dk - rk) for rk, dk in zip(r, d))
    across = sum(r[j] * (d[i] - r[i]) for j in range(len(d)) for i in range(j))
    return within + across


def test_orbit_dim_matches_the_double_sum():
    # every index of every composition of total <= 8, on checked arguments
    orbit_dim_of = orbits._orbit_dim
    indices = 0
    for d in compositions(8):
        for r in itertools.product(*(range(dk + 1) for dk in d)):
            assert orbit_dim_of(d, r) == _reference_orbit_dim(d, r), (d, r)
            indices += 1
    assert indices == 15759


def test_cell_count_anchors_and_vandermonde():
    assert [cell_count((2, 2), i) for i in linear_extension((2, 2), 2)] == [
        1,
        4,
        1,
    ]
    for d in [(8,), (3, 5), (2, 2, 4), (1, 1, 1, 1, 1, 1)]:
        total = sum(d)
        for r in range(total + 1):
            counted = sum(cell_count(d, i) for i in linear_extension(d, r))
            assert counted == math.comb(total, r)


def test_dense_cell():
    assert dense_cell((2, 2), (1, 1)) == (0, 1, 0, 1)
    assert dense_cell((2,), (1,)) == (0, 1)
    assert dense_cell((2,), (2,)) == (1, 1)
    assert dense_cell((3,), (1,)) == (0, 0, 1)
    assert dense_cell((2, 0, 1), (1, 0, 1)) == (0, 1, 1)


def test_dense_cell_is_maximal_refinement():
    for d in [(2, 2), (3, 1), (2, 1, 1)]:
        total = sum(d)
        fine = (1,) * total
        for r in range(total + 1):
            for idx in linear_extension(d, r):
                dense = dense_cell(d, idx)
                per_block = [
                    [
                        tuple(1 if i in ones else 0 for i in range(dk))
                        for ones in itertools.combinations(range(dk), rk)
                    ]
                    for dk, rk in zip(d, idx)
                ]
                for blocks in itertools.product(*per_block):
                    ref = tuple(itertools.chain.from_iterable(blocks))
                    assert closure_leq(fine, ref, dense)


def test_linear_extension():
    assert linear_extension((2, 2), 2) == [(2, 0), (1, 1), (0, 2)]
    assert linear_extension((2, 2), 0) == [(0, 0)]
    assert linear_extension((2, 2), 9) == []
    assert linear_extension((2, 2), -1) == []
    ext = linear_extension((1, 1, 1, 1), 2)
    assert len(ext) == 6
    # dimension never decreases along the listed order
    dims = [orbit_dim((1, 1, 1, 1), i) for i in ext]
    assert dims == sorted(dims)
    # closure order is respected: nothing later is below anything earlier
    for i, s in enumerate(ext):
        for t in ext[i + 1 :]:
            assert not (closure_leq((1, 1, 1, 1), t, s) and s != t)


def test_linear_extension_returns_a_fresh_list():
    first = linear_extension((2, 1, 1), 2)
    expected = list(first)
    first.reverse()
    first.append((9, 9, 9))
    assert linear_extension((2, 1, 1), 2) == expected
    assert linear_extension((2, 1, 1), 2) is not linear_extension((2, 1, 1), 2)


def test_partial_order_axioms():
    for d in [(2, 2), (1, 2, 1), (3, 2)]:
        for r in range(sum(d) + 1):
            idxs = linear_extension(d, r)
            for s, t in itertools.product(idxs, repeat=2):
                if closure_leq(d, s, t) and closure_leq(d, t, s):
                    assert s == t
                if s != t and closure_leq(d, s, t):
                    assert orbit_dim(d, s) < orbit_dim(d, t)
            for s, t, u in itertools.product(idxs, repeat=3):
                if closure_leq(d, s, t) and closure_leq(d, t, u):
                    assert closure_leq(d, s, u)


def test_covering_relations():
    assert covering_relations((2, 2), 2) == [
        ((2, 0), (1, 1)),
        ((1, 1), (0, 2)),
    ]
    for d in [(1, 1, 1, 1), (2, 2, 1)]:
        for r in range(sum(d) + 1):
            covers = set(covering_relations(d, r))
            idxs = linear_extension(d, r)
            for s, t in covers:
                assert closure_leq(d, s, t) and s != t
                for u in idxs:
                    if u in (s, t):
                        continue
                    assert not (
                        closure_leq(d, s, u)
                        and closure_leq(d, u, t)
                    ), (s, u, t)


def _reference_covering_relations(d, r):
    """The covering rule as once computed: every pair of the level
    compared with closure_leq, and a pair kept unless some third index
    lies strictly between."""
    elems = linear_extension(d, r)
    strict = {(s, t) for s in elems for t in elems if s != t and closure_leq(d, s, t)}
    covers = [
        (s, t)
        for (s, t) in strict
        if not any((s, m) in strict and (m, t) in strict for m in elems)
    ]
    pos = {idx: i for i, idx in enumerate(elems)}
    covers.sort(key=lambda st: (pos[st[0]], pos[st[1]]))
    return covers


def test_covering_relations_match_the_pairwise_rule():
    for d in [*compositions(7), (0, 2, 0, 1), (0,), (3, 0, 2)]:
        for r in range(-1, sum(d) + 2):
            expected = _reference_covering_relations(d, r)
            assert covering_relations(d, r) == expected, (d, r)


def test_zero_part_compositions():
    assert linear_extension((0,), 0) == [(0,)]
    assert linear_extension((0,), 1) == []
    assert linear_extension((2, 0), 1) == [(1, 0)]
    assert linear_extension((0, 3), 2) == [(0, 2)]
    ext = linear_extension((1, 0, 1), 1)
    assert ext == [(1, 0, 0), (0, 0, 1)]
    assert closure_leq((1, 0, 1), (1, 0, 0), (0, 0, 1))
    assert orbit_dim((1, 0, 1), (1, 0, 0)) == 0
    assert orbit_dim((1, 0, 1), (0, 0, 1)) == 1
    assert cell_count((2, 0), (1, 0)) == 2


def test_poset_json_and_dot():
    obj = poset_json_obj((2, 2), 2)
    assert obj["d"] == [2, 2]
    assert obj["r"] == 2
    assert obj["elements"] == [[2, 0], [1, 1], [0, 2]]
    assert obj["orbit_dim"] == [0, 3, 4]
    assert obj["cell_count"] == [1, 4, 1]
    assert obj["covers"] == [[[2, 0], [1, 1]], [[1, 1], [0, 2]]]
    dot = poset_dot((2, 2), 2)
    assert dot.startswith("digraph")
    assert '"(2,0)" -> "(1,1)";' in dot
    assert dot.endswith("}\n")


def _box_scan(d, r):
    """The level-r indices as once found: every index of the box
    0 <= r_k <= d_k, kept when it sums to r."""
    if r < 0 or r > sum(d):
        return []
    return [
        idx for idx in itertools.product(*(range(dk + 1) for dk in d)) if sum(idx) == r
    ]


def test_level_enumeration_matches_the_box_scan():
    for d in [*compositions(7), (0, 2, 0, 1), (0,), (3, 0, 2)]:
        for r in range(-1, sum(d) + 2):
            assert orbits._indices_at_level(d, r) == _box_scan(d, r), (d, r)


def test_level_enumeration_does_not_scan_a_huge_box():
    # the box of (10**9,) has 10**9 + 1 indices; level 0 has one
    assert linear_extension((10**9,), 0) == [(0,)]
    assert linear_extension((10**9, 2), 1) == [(1, 0), (0, 1)]
