"""Bar involution, quasi-R coefficients, canonical bases, split
expansion, and the refinement embedding."""

import copy
import functools
import importlib.util
import itertools
import json
import os
import pickle
import random
import re
import sys
from collections import defaultdict

import pytest

import qsl2.canonical as canonical_mod
import qsl2.modules as modules_mod
import qsl2.qring as qring_mod
from conftest import solved_under
from qsl2 import orbits
from qsl2 import (
    CanonicalTable,
    Laurent,
    ModuleVector,
    PermWord,
    SplitTable,
    bar_involution,
    canonical_basis,
    canonical_coords,
    clear_caches,
    compositions,
    compute_quasi_r,
    embed_refine,
    inner_product,
    linear_extension,
    r_plus_pair,
    run_all,
    split_expand,
)
from qsl2.errors import (
    AlgebraError,
    AmbientMismatchError,
    ConventionUnderdeterminedError,
    EmbeddingCheckFailedError,
    PurityViolationError,
    TriangularityViolationError,
)
from qsl2.modules import (
    LinMap,
    _JsonParts,
    act_divided,
    act_E,
    act_F,
    act_K,
    combine,
    enumerate_basis,
    format_index,
    render_terms,
    tensor,
    theta,
)
from qsl2.qring import (
    ONE,
    Q,
    QINV,
    ZERO,
    exact_div,
    q_half,
    q_power,
    quantum_factorial,
)
from qsl2.verify import SUITES

V = ModuleVector.basis


def neg(p):
    return Laurent({h: -c for h, c in p.items()})


# -- quasi-R coefficients ------------------------------------------------------


def test_quasi_r_frozen_values():
    ks = compute_quasi_r(3)
    assert ks[0] == ONE
    assert ks[1] == Laurent({2: -1, -2: 1})
    assert ks[2] == Laurent({4: 1, 0: -1, -4: -1, -8: 1})
    assert ks[3] == Laurent({6: -1, 2: 1, -2: 1, -10: -1, -14: -1, -18: 1})


def test_compute_quasi_r_refuses_a_bool():
    # compute_quasi_r(True) once returned kappa_0 and kappa_1
    for flag in (True, False):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            compute_quasi_r(flag)
    assert len(compute_quasi_r(1)) == 2 and compute_quasi_r(0) == [ONE]


def _closed_form_kappa(n):
    # kappa_n = (-1)^n q^(-n(n-1)/2) (q - q^-1)^n [n]!
    expected = (Q - QINV) ** n * quantum_factorial(n) * Laurent({-n * (n - 1): 1})
    return neg(expected) if n % 2 else expected


def test_quasi_r_closed_form():
    # every kappa_n through n = 10 passes its check on Lambda_(n,n)
    clear_caches()
    ks = compute_quasi_r(10)
    for n in range(11):
        assert ks[n] == _closed_form_kappa(n)
        # the closed-form coefficient of the braiding's Theta_R = bar Psi
        theta_r = q_power(n * (n - 1) // 2) * (Q - QINV) ** n * quantum_factorial(n)
        assert ks[n].bar() == theta_r


def _reference_next_kappa(kappa):
    """The two-trial solve of kappa_n, n = len(kappa): Psi on
    Lambda_(n,n) under kappa_n = 0 and kappa_n = 1 gives every equation
    as an intercept and a slope; the first unit slope pins the value
    and every other equation must agree."""
    n = len(kappa)
    d = (n, n)
    basis = [idx for level in range(2 * n + 1) for idx in enumerate_basis(d, level)]
    psi0, psi1 = (
        LinMap(
            d,
            d,
            {
                idx: theta(V((n,), idx[:1]), V((n,), idx[1:]), trial.__getitem__)
                for idx in basis
            },
        )
        for trial in (kappa + [ZERO], kappa + [ONE])
    )
    equations = []
    for idx in basis:
        for op in (act_F, act_E):
            xu_bar = op(V(d, idx)).map_coefficients(Laurent.bar)
            zero_part = psi0.apply(xu_bar) - op(psi0.columns[idx])
            slope = (psi1.apply(xu_bar) - op(psi1.columns[idx])) - zero_part
            for s in zero_part.support() | slope.support():
                equations.append((slope.coeff(s), -zero_part.coeff(s)))
    value = None
    for a, b in equations:
        terms = list(a.items())
        if len(terms) == 1 and abs(terms[0][1]) == 1:
            value = exact_div(b, a)
            break
    if value is None:
        raise ConventionUnderdeterminedError(f"no unit equation for kappa_{n}")
    for a, b in equations:
        if value * a != b:
            raise ConventionUnderdeterminedError(f"inconsistent kappa_{n}")
    if not value.is_in_a():
        raise ConventionUnderdeterminedError(f"kappa_{n} escaped Z[q, q^-1]")
    return value


def test_closed_form_matches_two_trial_solve():
    clear_caches()
    reference = [ONE]
    while len(reference) <= 7:
        reference.append(_reference_next_kappa(reference))
    solved = compute_quasi_r(7)
    assert len(solved) == len(reference) == 8
    for n, (new, old) in enumerate(zip(solved, reference)):
        assert new == old, n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kappa_solve_builds_the_top_term_once(monkeypatch, n):
    # Theta's n-th term on Lambda_(n,n) is F^(n) v_0 tensor E^(n) v_n:
    # E^(n) v_n is built once, by theta on the check's column of v_(0,n)
    # under the closed-form kappa_n.  theta builds divided powers one
    # step at a time, through the modules binding of _divided_step, so
    # its step to E^(n) is counted when it yields a nonzero vector; on
    # the column of v_(0,n-1), theta's step to E^(n) finds only that
    # E^(n) v_(n-1) vanishes
    real = modules_mod._divided_step
    built = []

    def counting(u, gen, k):
        out = real(u, gen, k)
        if gen == "E" and k == n and out._terms:
            built.append(u.d)
        return out

    clear_caches()
    monkeypatch.setattr(modules_mod, "_divided_step", counting)
    compute_quasi_r(n)
    assert built == [(n,)]


def test_wrong_f_action_leaves_kappa_underdetermined(monkeypatch):
    # F scaled by q breaks Psi F = F Psi for every kappa, so no solve
    # may return a value; the solved prefix stays at kappa_0
    real_f = canonical_mod.act_F
    clear_caches()
    monkeypatch.setattr(canonical_mod, "act_F", lambda u: real_f(u).scale(Q))
    with pytest.raises(ConventionUnderdeterminedError):
        compute_quasi_r(2)
    assert canonical_mod._KAPPA == [ONE]
    clear_caches()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "fault",
    [lambda f: f * Q, lambda f: -f, lambda f: f * QINV * QINV],
    ids=["times-q", "negated", "times-q^-2"],
)
def test_a_wrong_closed_form_is_refused(monkeypatch, n, fault):
    # a planted fault in the closed form's kappa_n fails the intertwining
    # check on Lambda_(n,n); nothing is kept, neither kappa_n nor the
    # check's column of v_(0,n)
    real = canonical_mod.quantum_factorial
    clear_caches()
    compute_quasi_r(n - 1)
    monkeypatch.setattr(
        canonical_mod,
        "quantum_factorial",
        lambda k: fault(real(k)) if k == n else real(k),
    )
    message = (
        rf"kappa_{n} = .* fails Psi F = F Psi at \(0, {n - 1}\) "
        rf"on Lambda_\({n}, {n}\)"
    )
    with pytest.raises(ConventionUnderdeterminedError, match=message):
        compute_quasi_r(n)
    assert canonical_mod._KAPPA == [_closed_form_kappa(k) for k in range(n)]
    assert ("psi", (n, n), 1, (0, n)) not in canonical_mod._MEMO
    clear_caches()


def test_a_kappa_outside_z_q_is_refused(monkeypatch):
    # with E and F zero maps every column intertwines, so only the ring
    # check can refuse the closed form built on [1]! = q^(1/2); nothing
    # is kept
    clear_caches()
    zero = lambda u: ModuleVector.zero(u.d)
    monkeypatch.setattr(canonical_mod, "act_E", zero)
    monkeypatch.setattr(canonical_mod, "act_F", zero)
    monkeypatch.setattr(canonical_mod, "quantum_factorial", lambda n: q_half(1))
    with pytest.raises(ConventionUnderdeterminedError) as info:
        compute_quasi_r(1)
    assert str(info.value) == "kappa_1 = -q^(3/2) + q^(-1/2) escaped Z[q, q^-1]"
    assert canonical_mod._KAPPA == [ONE]
    clear_caches()


@pytest.mark.parametrize(
    "solve, solved",
    [
        (lambda: canonical_basis((1,) * 9, 4), 1),
        (lambda: canonical_basis((3, 1), 2), 1),
        (lambda: canonical_basis((2, 2), 2), 1),
        (lambda: bar_involution(V((1, 1, 1, 1), (0, 1, 0, 1))), 2),
        (lambda: bar_involution(V((1, 1, 1, 1), (0, 1, 0, 1)), cut=2), 2),
        (lambda: r_plus_pair(1, 5), 2),
        (lambda: r_plus_pair(3, 3), 4),
        (lambda: canonical_basis((12, 12), 1), 1),
        (lambda: bar_involution(V((10, 10), (0, 1))), 2),
        (lambda: bar_involution(V((3, 3), (3, 0))), 1),
        (lambda: bar_involution(V((4, 4), (2, 2))), 3),
        (lambda: bar_involution(V((1, 3), (1, 2))), 1),
    ],
    ids=[
        "1x9-r4",
        "3-1-r2",
        "2-2-r2",
        "bar-1-1-1-1",
        "bar-1-1-1-1-cut2",
        "rplus-1-5",
        "rplus-3-3",
        "12-12-r1",
        "bar-10-10-level1",
        "bar-3-3-at-3-0",
        "bar-4-4-at-2-2",
        "bar-1-3-at-1-2",
    ],
)
def test_kappa_is_solved_only_as_far_as_it_is_read(solve, solved):
    # a table reads no kappa; the Psi column of v_idx with its top cut
    # at c reads kappa_n for n <= min(d_0 + ... + d_(c-1) - (idx_0 + ...
    # + idx_(c-1)), idx_c + ... + idx_l), the last n at which F^(n) of
    # the left block and E^(n) of the right block are both nonzero, and
    # its nested columns at cut 1 bound their own reads the same way
    clear_caches()
    solve()
    assert len(canonical_mod._KAPPA) == solved


def test_kappa_override_solves_no_coefficient():
    # Psi of v(0,2) on (2,2) reads kappa_1 and kappa_2, served by the
    # override: none is checked or kept in the block, and the closed
    # form gives the image of the checked coefficients
    given = [_closed_form_kappa(n) for n in range(3)]
    u = V((2, 2), (0, 2))
    with solved_under(given):
        table = canonical_basis((2, 2), 2)
        image = bar_involution(u)
        assert canonical_mod._KAPPA == [ONE]
    assert canonical_mod._MEMO == {}
    assert table == canonical_basis((2, 2), 2)
    assert image == bar_involution(u)
    assert len(canonical_mod._KAPPA) == 3


def _reference_reach(d, idx, cut):
    """The last n at which Theta's terms on Psi(v_idx) at cut can be
    nonzero, as the package once computed it before each column: F^(n)
    of the left block vanishes past its total minus its level, and
    E^(n) of the right block past its level."""
    return min(sum(d[:cut]) - sum(idx[:cut]), sum(idx[cut:]))


def test_theta_reads_kappa_in_order_as_far_as_the_reference_reach():
    # Theta calls kappa once per term it sums, n = 0 first, so a column
    # reads exactly kappa_0 .. kappa_m, m the reach the package once
    # computed before each column, and under the true kappa its sum is
    # Psi(v_idx) at that cut
    for d in compositions(6):
        for cut in range(1, len(d)):
            for r in range(sum(d) + 1):
                for idx in enumerate_basis(d, r):
                    reads = []

                    def recording(n):
                        reads.append(n)
                        return compute_quasi_r(n)[n]

                    left = canonical_mod._psi_basis(d[:cut], idx[:cut], 1)
                    right = canonical_mod._psi_basis(d[cut:], idx[cut:], 1)
                    image = theta(left, right, recording)
                    m = _reference_reach(d, idx, cut)
                    assert reads == list(range(m + 1)), (d, cut, idx)
                    assert image == bar_involution(V(d, idx), cut=cut), (d, cut, idx)


@pytest.mark.parametrize(
    "call",
    [
        lambda: canonical_basis((1, 1), 1, kappa=[ONE]),
        lambda: bar_involution(V((1, 1), (0, 1)), kappa=[ONE]),
    ],
    ids=["canonical_basis", "bar_involution"],
)
def test_no_public_kappa_override(call):
    # every table is solved with no kappa, and every Psi image under the
    # checked coefficients
    with pytest.raises(TypeError, match="kappa"):
        call()


def test_quasi_r_prefix_stability_and_validation():
    long = compute_quasi_r(4)
    short = compute_quasi_r(2)
    assert long[:3] == short
    with pytest.raises(ValueError):
        compute_quasi_r(-1)


# -- bar involution ------------------------------------------------------------


def test_bar_involution_anchor():
    u = bar_involution(V((1, 1), (0, 1)))
    assert u == V((1, 1), (0, 1)) + V((1, 1), (1, 0)).scale(QINV - Q)
    assert bar_involution(V((1, 1), (1, 0))) == V((1, 1), (1, 0))


def test_bar_involution_squares_to_identity():
    for d in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1)]:
        for r in range(sum(d) + 1):
            for idx in enumerate_basis(d, r):
                u = V(d, idx)
                assert bar_involution(bar_involution(u)) == u


def test_bar_involution_is_anti_linear():
    rng = random.Random(4417)
    for _ in range(20):
        d = rng.choice([(1, 1), (2, 1), (1, 1, 1)])
        r = rng.randrange(sum(d) + 1)
        basis = enumerate_basis(d, r)
        u = ModuleVector.zero(d)
        for idx in basis:
            u = u + V(d, idx).scale(
                Laurent({2 * rng.randrange(-3, 4): rng.randrange(-5, 6)})
            )
        p = Laurent({2 * rng.randrange(-3, 4): rng.randrange(1, 5)})
        assert bar_involution(u.scale(p)) == bar_involution(u).scale(p.bar())


def test_bar_involution_nesting_independent():
    d = (1, 1, 1)
    for r in range(4):
        for idx in enumerate_basis(d, r):
            u = V(d, idx)
            assert bar_involution(u, cut=1) == bar_involution(u, cut=2)


def test_bar_involution_cut_validation():
    u = V((1, 1, 1), (1, 0, 0))
    with pytest.raises(ValueError):
        bar_involution(u, cut=0)
    with pytest.raises(ValueError):
        bar_involution(u, cut=3)


def test_bar_involution_of_one_factor_takes_only_cut_1():
    # a single factor has no split, so only the default cut is accepted
    u = V((2,), (1,))
    assert bar_involution(u, cut=1) == bar_involution(u) == u
    for cut in ("x", True, 7, 0, 1.0):
        named = re.escape(f"cut {cut!r} out of range for 1 slots")
        with pytest.raises(ValueError, match=named):
            bar_involution(u, cut=cut)


# -- canonical tables ----------------------------------------------------------


def test_canonical_table_1_1():
    t = canonical_basis((1, 1), 1)
    assert t.order == ((1, 0), (0, 1))
    assert t.rows[(1, 0)] == V((1, 1), (1, 0))
    assert t.rows[(0, 1)] == V((1, 1), (0, 1)) + V((1, 1), (1, 0)).scale(QINV)


def test_canonical_table_2_2():
    t = canonical_basis((2, 2), 2)
    assert t.order == ((2, 0), (1, 1), (0, 2))
    d = (2, 2)
    assert t.rows[(2, 0)] == V(d, (2, 0))
    assert t.rows[(1, 1)] == V(d, (1, 1)) + V(d, (2, 0)).scale(
        Laurent({-2: 1, -6: 1})
    )
    assert t.rows[(0, 2)] == (
        V(d, (0, 2)) + V(d, (1, 1)).scale(QINV) + V(d, (2, 0)).scale(q_power(-4))
    )
    assert t.coefficient((0, 2), (2, 0)) == q_power(-4)
    assert t.coefficient((2, 0), (0, 2)) == ZERO


@pytest.mark.parametrize("r_idx, s_idx", [((5, 5), (2, 0)), ((1, 1), (1, 0))])
def test_coefficient_off_the_level_names_table_and_index(r_idx, s_idx):
    t = canonical_basis((2, 2), 2)
    off = r_idx if sum(r_idx) != 2 else s_idx
    with pytest.raises(ValueError) as info:
        t.coefficient(r_idx, s_idx)
    assert str(info.value) == f"index {off} is not on level 2 of Lambda_(2, 2)"


def test_bool_is_not_an_int_of_a_composition_index_or_level():
    clear_caches()
    with pytest.raises(ValueError, match="not a composition"):
        canonical_basis((True, True), 1)
    # no table was memoized under the (1, 1) key, so the integer
    # request renders its own integers
    table = canonical_basis((1, 1), 1)
    assert table.render().startswith("canonical basis d=(1,1) r=1\n")
    assert json.dumps(table.to_json_obj()["d"]) == "[1, 1]"
    with pytest.raises(ValueError, match="level True out of range"):
        canonical_basis((1, 1), True)
    with pytest.raises(ValueError, match="out of range"):
        V((1, 1), (True, False))
    with pytest.raises(ValueError, match="out of range"):
        orbits.check_index((1, 1), (1, False))
    with pytest.raises(ValueError, match="cut True out of range"):
        split_expand((1, 1), True, 1)
    with pytest.raises(ValueError, match="cut True out of range"):
        bar_involution(V((1, 1, 1), (0, 1, 0)), cut=True)
    with pytest.raises(ValueError, match="letter True is not an int"):
        PermWord(2, [True])


def test_canonical_rows_bar_fixed_unitriangular_positive():
    from qsl2.orbits import closure_leq

    for d in [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2), (3, 2)]:
        for r in range(sum(d) + 1):
            t = canonical_basis(d, r)
            for idx in t.order:
                row = t.rows[idx]
                assert bar_involution(row) == row
                assert row.coeff(idx) == ONE
                for s, c in row.items():
                    if s == idx:
                        continue
                    assert closure_leq(d, s, idx) and s != idx
                    assert c.is_in_qinv_z_nonneg()


def test_canonical_degenerate_levels():
    for d in [(1, 1), (2, 2), (2, 1, 1)]:
        bottom = canonical_basis(d, 0)
        top = canonical_basis(d, sum(d))
        for t in (bottom, top):
            assert len(t.order) == 1
            idx = t.order[0]
            assert t.rows[idx] == V(d, idx)


def test_canonical_level_validation():
    with pytest.raises(ValueError):
        canonical_basis((1, 1), 3)
    with pytest.raises(ValueError):
        canonical_basis((1, 1), -1)


def test_canonical_memoized_per_process():
    assert canonical_basis((2, 1), 1) is canonical_basis((2, 1), 1)


def test_canonical_coords_roundtrip():
    t = canonical_basis((2, 2), 2)
    u = t.rows[(1, 1)].scale(Q) + t.rows[(0, 2)].scale(ONE + QINV)
    coords = canonical_coords(t, u)
    assert coords == [((1, 1), Q), ((0, 2), ONE + QINV)]
    rebuilt = ModuleVector.zero((2, 2))
    for idx, c in coords:
        rebuilt = rebuilt + t.rows[idx].scale(c)
    assert rebuilt == u


def test_canonical_coords_rejects_wrong_level():
    # a vector off the table's level is a usage error, not an AlgebraError
    t = canonical_basis((2, 2), 2)
    message = r"levels \[1\] against the level-2 table of Lambda_\(2, 2\)"
    with pytest.raises(ValueError, match=message):
        canonical_coords(t, V((2, 2), (1, 0)))
    mixed = V((2, 2), (1, 1)) + V((2, 2), (2, 1))
    with pytest.raises(ValueError, match=r"levels \[2, 3\]"):
        canonical_coords(t, mixed)


def test_canonical_coords_leftover_on_the_level_is_a_triangularity_violation():
    # a table missing the row of (0, 1) leaves v(0,1) over: the table,
    # not the vector, is at fault
    t = canonical_basis((1, 1), 1)
    partial = CanonicalTable(t.d, t.r, ((1, 0),), {(1, 0): t.rows[(1, 0)]})
    with pytest.raises(TriangularityViolationError) as info:
        canonical_coords(partial, V((1, 1), (0, 1)))
    # the exact text, which is formatted only on a leftover
    assert str(info.value) == (
        "vector escaped the level-1 table of Lambda_(1, 1) at (0, 1)"
    )
    assert not issubclass(TriangularityViolationError, ValueError)


def test_split_leftover_names_the_row_cut_and_factor_table(monkeypatch):
    # a (1, 1) table whose order misses (0, 1) cannot take back the part
    # of a (1, 1, 1) row that the split at cut 2 gathers on level 1
    clear_caches()
    canonical_basis((1, 1, 1), 1)
    t = canonical_basis((1, 1), 1)
    partial = CanonicalTable(t.d, t.r, ((1, 0),), t.rows, t.product)
    monkeypatch.setitem(canonical_mod._MEMO, ("table", (1, 1), 1), partial)
    with pytest.raises(TriangularityViolationError) as info:
        split_expand((1, 1, 1), 2, 1)
    assert str(info.value) == (
        "split of b(0, 1, 0) on Lambda_(1, 1, 1) at cut 2 escaped "
        "the level-1 table of Lambda_(1, 1) at (0, 1)"
    )
    monkeypatch.undo()
    clear_caches()


def test_e_coords_leftover_names_the_image_and_the_lower_table(monkeypatch):
    # E b(1, 1) of (1, 1) lands on v(0, 1) among others, which a level-1
    # table missing that row cannot take back
    clear_caches()
    canonical_basis((1, 1), 2)
    t = canonical_basis((1, 1), 1)
    partial = CanonicalTable(t.d, t.r, ((1, 0),), t.rows, t.product)
    monkeypatch.setitem(canonical_mod._MEMO, ("table", (1, 1), 1), partial)
    with pytest.raises(TriangularityViolationError) as info:
        canonical_mod._e_coords((1, 1), (1, 1), 1)
    assert str(info.value) == (
        "E^(1) b(1, 1) escaped the level-1 table of Lambda_(1, 1) at (0, 1)"
    )
    assert ("E", (1, 1), (1, 1), 1) not in canonical_mod._MEMO
    monkeypatch.undo()
    clear_caches()


def test_canonical_coords_rejects_another_ambient():
    table = canonical_basis((1, 1), 1)
    with pytest.raises(AmbientMismatchError, match=r"\(2,\).*\(1, 1\)"):
        canonical_coords(table, V((2,), (1,)))


def test_canonical_table_json_roundtrip():
    t = canonical_basis((2, 2), 2)
    obj = t.to_json_obj()
    assert json.loads(json.dumps(obj)) == obj
    assert obj["d"] == [2, 2]
    assert obj["r"] == 2
    assert [row["r_index"] for row in obj["rows"]] == [[2, 0], [1, 1], [0, 2]]


def test_canonical_render():
    text = canonical_basis((1, 1), 1).render()
    assert text == (
        "canonical basis d=(1,1) r=1\n"
        "b(1,0) = v(1,0)\n"
        "b(0,1) = v(0,1) + q^-1 v(1,0)\n"
    )


def test_canonical_render_matches_the_row_by_row_reference():
    # render formats each coefficient and index once per call; the text
    # is the header and str(row) per row, as it was first written
    for d, r in [((1,) * 8, 4), ((2, 1, 3), 3), ((3, 3), 3), ((2, 2, 2), 2), ((4,), 2)]:
        table = canonical_basis(d, r)
        lines = [f"canonical basis d={orbits.format_index(d)} r={r}"]
        lines += [f"b{orbits.format_index(idx)} = {table.rows[idx]}" for idx in table.order]
        assert table.render() == "\n".join(lines) + "\n", (d, r)


# -- reference solve -----------------------------------------------------------


# The two obstruction checks of the Theta-route references below, and
# their errors: an obstruction g must satisfy bar(g) = -g and have no
# constant term.


class ObstructionNotAntisymmetricError(AlgebraError):
    """A bar obstruction coefficient of a reference solve is not negated
    by the bar map."""


class NonzeroConstantTermError(AlgebraError):
    """A bar obstruction coefficient of a reference solve has a nonzero
    constant term."""


def _is_bar_antisymmetric(g):
    return g.bar() == -g


def _has_zero_constant_term(g):
    return g._terms.get(0, 0) == 0


def _reference_table(d, r):
    """The correction loop the package used before the coefficient
    recursion: repair beta = v_r by p b_s at the highest obstruction s
    until Psi(beta) = beta, re-applying Psi to all of beta each time."""
    order = tuple(orbits.linear_extension(d, r))
    position = {idx: i for i, idx in enumerate(order)}
    rows = {}
    for r_idx in order:
        beta = V(d, r_idx)
        for _ in range(len(order) + 1):
            delta = bar_involution(beta) - beta
            if delta.is_zero():
                break
            for s in delta.support():
                if s == r_idx or not orbits.closure_leq(d, s, r_idx):
                    raise TriangularityViolationError(f"{s} vs {r_idx}")
            s = max(delta.support(), key=position.get)
            g = delta.coeff(s)
            if not _is_bar_antisymmetric(g):
                raise ObstructionNotAntisymmetricError(f"({g}) at {s}")
            if not _has_zero_constant_term(g):
                raise NonzeroConstantTermError(f"({g}) at {s}")
            beta = beta + rows[s].scale(g.negative_half())
        else:
            raise TriangularityViolationError(f"no convergence for b{r_idx}")
        rows[r_idx] = beta
    return CanonicalTable(d, r, order, rows)


def _psi_below(d, t, prefix):
    """Column t of the standard-basis Psi matrix without its diagonal
    entry, after checking that it is unitriangular."""
    column = dict(canonical_mod._psi_basis(d, t, 1)._terms)
    diagonal = column.pop(t, ZERO)
    if diagonal != ONE:
        raise TriangularityViolationError(
            f"Psi(v{t}) on Lambda_{d} has diagonal coefficient {diagonal}, not 1"
        )
    for s in column:
        sums = prefix.get(s)
        if sums is None:
            raise TriangularityViolationError(f"Psi(v{t}) off level at {s}")
        if not orbits.prefix_dominates(sums, prefix[t]):
            raise TriangularityViolationError(f"Psi(v{t}) outside closure at {s}")
    return column


def _reference_recursion(d, r):
    """The solve the package used before the product basis: the same
    coefficient recursion over the standard-basis Psi matrix, whose
    columns fill the whole lower closure.  Its columns are the
    package's Psi columns, each reading kappa as far as it reaches, so
    solved_under reaches them; the package's table solve reads no
    kappa."""
    order = tuple(orbits.linear_extension(d, r))
    prefix = {idx: orbits.prefix_sums(idx) for idx in order}
    below = {t: _psi_below(d, t, prefix) for t in order}
    rows = {}
    for top, r_idx in enumerate(order):
        coeffs = {r_idx: ONE}
        obstruction = dict(below[r_idx])
        for s in reversed(order[:top]):
            g = obstruction.pop(s, ZERO)
            if g.is_zero():
                continue
            if not orbits.prefix_dominates(prefix[s], prefix[r_idx]):
                raise TriangularityViolationError(f"{s} vs {r_idx}")
            if not _is_bar_antisymmetric(g):
                raise ObstructionNotAntisymmetricError(f"({g}) at {s}")
            if not _has_zero_constant_term(g):
                raise NonzeroConstantTermError(f"({g}) at {s}")
            p = g.negative_half()
            coeffs[s] = p
            for u, a in below[s].items():
                obstruction[u] = obstruction.get(u, ZERO) + a * p.bar()
        rows[r_idx] = ModuleVector(d, coeffs)
    return CanonicalTable(d, r, order, rows)


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_recursion_matches_reference_correction_loop():
    for total in range(1, 7):
        for d in _compositions(total):
            for r in range(total + 1):
                assert canonical_basis(d, r) == _reference_table(d, r)
    assert canonical_basis((1,) * 8, 4) == _reference_table((1,) * 8, 4)


def test_recursion_matches_reference_under_kappa_override():
    # the two Theta routes agree on the wrong table; the solve reads no
    # kappa, so its table is the clean one
    ks = compute_quasi_r(2)
    clean = canonical_basis((2, 2), 2)
    flipped = [ks[0], neg(ks[1]), ks[2]]
    with solved_under(flipped):
        wrong = _reference_table((2, 2), 2)
        assert wrong == _reference_recursion((2, 2), 2)
        assert canonical_basis((2, 2), 2) == clean
    assert wrong != clean


def test_product_solve_matches_standard_basis_recursion():
    cases = [
        (d, r) for t in range(1, 8) for d in _compositions(t) for r in range(t + 1)
    ]
    cases += [((0, 2, 0, 1), r) for r in range(4)] + [((1,) * 9, 4)]
    for d, r in cases:
        assert canonical_basis(d, r) == _reference_recursion(d, r), (d, r)


def _outcome(solve, d, r, kappa):
    try:
        with solved_under(kappa):
            return solve(d, r)
    except (AlgebraError, ValueError) as e:  # the error type is compared
        return type(e)


def test_product_solve_matches_standard_basis_recursion_under_kappa_override():
    # criterion 11's negated kappa_1: the two Theta routes give an equal
    # wrong table on (2,2) and the same error type at every level of
    # (2,1,2) that fails; the solve gives the clean table at every level
    ks = compute_quasi_r(2)
    clean = {r: canonical_basis((2, 1, 2), r) for r in range(6)}
    flipped = [ks[0], neg(ks[1]), ks[2]]
    with solved_under(flipped):
        wrong = _reference_recursion((2, 2), 2)
        assert wrong == _reference_table((2, 2), 2)
    assert wrong != canonical_basis((2, 2), 2)
    raised = 0
    for r in range(6):
        new = _outcome(_reference_table, (2, 1, 2), r, flipped)
        old = _outcome(_reference_recursion, (2, 1, 2), r, flipped)
        assert new == old
        raised += isinstance(new, type)
        assert _outcome(canonical_basis, (2, 1, 2), r, flipped) == clean[r]
    assert raised == 4


# -- per-process memo store ----------------------------------------------------


def _lru_memos(module):
    """Every lru_cache function module defines, found among its globals."""
    return {
        obj
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
    }


def test_clear_caches_empties_store_and_resets_kappa():
    first = canonical_basis((2, 2), 2)
    # a factor with two slots, so that some E^(n) coordinates are memoized
    canonical_basis((1, 1, 1), 2)
    r_plus_pair(1, 2)
    embed_refine((2, 1))
    bar_involution(V((1, 1), (0, 1)))
    # divided powers divide by [k] one step at a time, so only the
    # closed form of kappa reads the quantum factorial; its memo is
    # filled directly, whatever kappa earlier tests left checked
    quantum_factorial(3)
    kinds = {key[0] for key in canonical_mod._MEMO}
    assert kinds == {"psi", "table", "E", "pair"}
    assert len(canonical_mod._KAPPA) > 1
    # every memo defined in these modules is listed for clear_caches
    constants = set().union(
        *map(_lru_memos, (qring_mod, orbits, modules_mod, canonical_mod))
    )
    assert constants == set(canonical_mod._CONSTANT_MEMOS)
    assert len(constants) == len(canonical_mod._CONSTANT_MEMOS)
    assert all(memo.cache_info().currsize > 0 for memo in constants)
    clear_caches()
    assert canonical_mod._MEMO == {}
    assert canonical_mod._VALUES == {} and canonical_mod._PRODUCTS == {}
    assert canonical_mod._SUMS == {} and canonical_mod._SPLITS == {}
    assert canonical_mod._KAPPA == [ONE]
    for memo in constants:
        assert memo.cache_info().currsize == 0
    again = canonical_basis((2, 2), 2)
    assert again is not first
    assert again == first
    assert again.render() == first.render()


def _stored_coefficients(memo):
    """Every coefficient held by the memoized tables (rows and product
    coordinates) and E^(n) coordinates of memo."""
    for key, value in memo.items():
        if key[0] == "table":
            for row in value.rows.values():
                yield from row._terms.values()
            for coords in (value.product or {}).values():
                yield from coords.values()
        elif key[0] == "E":
            yield from value.values()


def test_equal_stored_coefficients_are_one_object():
    clear_caches()
    for r in range(9):
        canonical_basis((1,) * 8, r)
    for total in range(1, 7):
        for d in _compositions(total):
            for r in range(total + 1):
                canonical_basis(d, r)
    first = {}
    stored = 0
    for c in _stored_coefficients(canonical_mod._MEMO):
        assert first.setdefault(c, c) is c, c
        assert canonical_mod._VALUES[c] is c, c
        stored += 1
    assert first[ONE] is ONE
    # the Kazhdan-Lusztig polynomials repeat: far fewer values than entries
    assert stored > 20 * len(first)


def test_solved_under_leaves_every_memo_empty():
    real = canonical_mod._kappa
    ks = compute_quasi_r(2)
    with solved_under([ks[0], neg(ks[1]), ks[2]]):
        canonical_basis((2, 2), 2)
        r_plus_pair(1, 2)
        # rows are expanded on their first read, which fills the products
        # and sums
        canonical_basis((1,) * 4, 2).rows
        assert canonical_mod._VALUES and canonical_mod._PRODUCTS
        assert canonical_mod._SUMS and canonical_mod._SPLITS
    assert canonical_mod._kappa is real
    assert canonical_mod.compute_quasi_r is compute_quasi_r
    assert canonical_mod._MEMO == {}
    assert canonical_mod._VALUES == {}
    assert canonical_mod._PRODUCTS == {}
    assert canonical_mod._SUMS == {}
    assert canonical_mod._SPLITS == {}
    assert canonical_mod._KAPPA == [ONE]
    for memo in canonical_mod._CONSTANT_MEMOS:
        assert memo.cache_info().currsize == 0, memo
    fresh = json.dumps(canonical_basis((2, 2), 2).to_json_obj(), indent=2) + "\n"
    with open(os.path.join(_GOLDEN_DIR, "canon_d2-2_r2.json"), encoding="utf-8") as fh:
        assert fresh == fh.read()


def test_clear_caches_empties_the_value_and_product_tables():
    # the solve fills the splits, the first read of rows the products
    # and sums
    canonical_basis((1,) * 6, 3).rows
    assert canonical_mod._VALUES
    assert canonical_mod._PRODUCTS
    assert canonical_mod._SUMS
    assert canonical_mod._SPLITS
    clear_caches()
    assert canonical_mod._VALUES == {}
    assert canonical_mod._PRODUCTS == {}
    assert canonical_mod._SUMS == {}
    assert canonical_mod._SPLITS == {}


def test_every_psi_column_value_is_its_shared_instance():
    # the bar and rmatrix suites fill the Psi store through bar_involution
    # and the pair braidings; each stored coefficient is the _VALUES one
    clear_caches()
    assert SUITES["bar"](5).passed and SUITES["rmatrix"](4).passed
    columns = [col for key, col in canonical_mod._MEMO.items() if key[0] == "psi"]
    assert len(columns) > 500
    values = canonical_mod._VALUES
    coefficients = [c for col in columns for c in col._terms.values()]
    assert all(values[c] is c for c in coefficients)
    # one object per distinct value
    assert len({id(c) for c in coefficients}) == len(set(coefficients)) < len(coefficients)
    clear_caches()


def test_every_psi_key_is_its_shared_index_tuple():
    # the bar suite fills the Psi store; each column keys every index by
    # the one tuple of it in its level's order in orbits._level, which
    # the level's canonical table keeps as its order
    clear_caches()
    assert SUITES["bar"](5).passed
    columns = [col for key, col in canonical_mod._MEMO.items() if key[0] == "psi"]
    assert len(columns) > 500
    for col in columns:
        for i in col._terms:
            table = canonical_basis(col.d, sum(i))
            assert table.order is orbits._level(col.d, sum(i))[0]
            assert i is table.order[table._position[i]]
    # one object per distinct index of each composition, far fewer than
    # the keys
    keys = [(col.d, i) for col in columns for i in col._terms]
    assert len({id(i) for _, i in keys}) == len(set(keys))
    assert 3 * len(set(keys)) < len(keys)
    clear_caches()


def _reversed_ties(level):
    """A replacement for orbits._level that reverses each run of indices
    of equal orbit dimension, keeping the dimensions and positions
    aligned: another linear extension of the closure order, as a proper
    closure drops the dimension."""

    @functools.lru_cache(maxsize=None)
    def replaced(d, r):
        order, dims, _ = level(d, r)
        runs = itertools.groupby(zip(dims, order), key=lambda pair: pair[0])
        pairs = [pair for _, run in runs for pair in reversed(list(run))]
        order = tuple(idx for _, idx in pairs)
        dims = tuple(dim for dim, _ in pairs)
        return order, dims, {idx: i for i, idx in enumerate(order)}

    return replaced


def test_the_level_order_of_orbits_orders_vectors_and_tables(monkeypatch):
    # orbits alone orders a level: with its order replaced, vector terms
    # and a solved table follow the new order, and the table's rows, which
    # do not depend on the linear extension, are unchanged
    d, r = (1, 2, 1, 1), 2
    clear_caches()
    true = canonical_basis(d, r)
    rows = {t: dict(row._terms) for t, row in true.rows.items()}
    clear_caches()
    monkeypatch.setattr(orbits, "_level", _reversed_ties(orbits._level))
    order = orbits._level(d, r)[0]
    assert order != true.order and sorted(order) == sorted(true.order)
    assert linear_extension(d, r) == list(order)
    below = orbits._level(d, r - 1)[0]
    u = combine(d, ((ONE, ModuleVector.basis(d, idx)) for idx in below + order))
    assert [idx for idx, _ in u.items()] == list(below + order)
    table = canonical_basis(d, r)
    assert table.order is order
    assert {t: dict(row._terms) for t, row in table.rows.items()} == rows
    top = table.rows[order[-1]]
    assert [idx for idx, _ in top.items()] == [s for s in order if s in top._terms]
    monkeypatch.undo()
    clear_caches()


def test_a_cold_solve_computes_each_orbit_dimension_once_per_index(monkeypatch):
    # the solve reads every orbit dimension by position from orbits._level,
    # whose sort computes each once: none is computed per coefficient
    clear_caches()
    calls = []
    real = orbits._orbit_dim

    def counted(d, idx):
        calls.append((d, idx))
        return real(d, idx)

    monkeypatch.setattr(orbits, "_orbit_dim", counted)
    canonical_basis((1,) * 9, 4)
    count = len(calls)
    levels = [key[1:] for key in canonical_mod._MEMO if key[0] == "table"]
    assert len(levels) > 20
    indices = [(d, idx) for d, r in levels for idx in orbits._level(d, r)[0]]
    assert count == len(set(calls)) == len(indices)
    assert set(calls) == set(indices)
    for d, r in levels:
        assert canonical_mod._MEMO["table", d, r].order is orbits._level(d, r)[0]
    monkeypatch.undo()
    clear_caches()


def test_coefficient_reads_the_product_coordinates_and_builds_no_row():
    # each entry is read through the product coordinates of the table
    # and of the d'' tables below it, down to one factor, with no row built
    clear_caches()
    table = canonical_basis((1,) * 8, 4)
    entries = {(t, s): table.coefficient(t, s) for t in table.order for s in table.order}
    assert not any(map(_rows_built, _memo_tables()))
    assert all(table.rows[t].coeff(s) == c for (t, s), c in entries.items())
    nonzero = sum(1 for c in entries.values() if c._terms)
    assert nonzero == sum(len(row._terms) for row in table.rows.values())
    clear_caches()


def test_every_split_coefficient_is_its_shared_instance():
    clear_caches()
    values = canonical_mod._VALUES
    for d, cut, r in [((1,) * 8, 4, 4), ((2, 1, 2, 1), 2, 3), ((1, 1, 1), 1, 1)]:
        split = split_expand(d, cut, r)
        coefficients = [c for row in split.rows.values() for c in row.values()]
        assert coefficients and all(values[c] is c for c in coefficients), (d, cut, r)
    clear_caches()


def test_every_split_key_is_its_levels_tuple():
    # at every cut, each row and entry key is the one tuple of its index
    # in orbits._level, not a concatenation made for the entry
    clear_caches()
    for d, cut, r in [((1,) * 8, 4, 4), ((2, 1, 2, 1), 2, 3), ((1,) * 6, 5, 3)]:
        order, _, position = orbits._level(d, r)
        rows = split_expand(d, cut, r).rows
        keys = [s for row in rows.values() for s in row]
        assert len(keys) > len(rows), (d, cut, r)
        for s in [*rows, *keys]:
            assert s is order[position[s]], (d, cut, r, s)
    clear_caches()


def test_tables_and_splits_share_their_levels_position_map():
    # orbits._level is the one memo of a level: every stored table and the
    # split read its position map rather than building their own
    clear_caches()
    assert orbits._MEMOS == (orbits._level,)
    assert not hasattr(orbits, "_positions")
    canonical_basis((1,) * 6, 3)
    split = split_expand((1,) * 6, 3, 3)
    assert split._position is orbits._level((1,) * 6, 3)[2]
    tables = [v for key, v in canonical_mod._MEMO.items() if key[0] == "table"]
    assert len(tables) > 10
    for table in tables:
        assert table._position is orbits._level(table.d, table.r)[2]
        dup = pickle.loads(pickle.dumps(table))
        assert dup._position is table._position
    clear_caches()


def test_a_record_on_another_order_builds_its_own_position_map():
    t = canonical_basis((1, 1), 1)
    partial = CanonicalTable(t.d, t.r, ((1, 0),), t.rows, t.product)
    assert partial._position == {(1, 0): 0}
    split = split_expand((1, 1, 1), 1, 1)
    reversed_order = split.order[::-1]
    other = SplitTable(split.d, split.cut, split.r, reversed_order, split.rows)
    assert other._position == {idx: i for i, idx in enumerate(reversed_order)}
    assert other._position is not split._position


def test_kappa_override_leaves_the_shared_values_alone():
    # the negated kappa_1 reaches the Psi images that read it, a bar
    # image and the pair braiding, and no table; it leaves with the block
    clear_caches()
    u = V((1, 1), (0, 1))
    clean = bar_involution(u)
    clean_pair = r_plus_pair(1, 1)
    clean_table = canonical_basis((1,) * 4, 2)
    # rows are expanded on their first read, which fills the products
    # and sums
    canonical_basis((1,) * 6, 3).rows
    ks = compute_quasi_r(1)
    flipped = [ks[0], neg(ks[1])]
    stored = len(canonical_mod._MEMO)
    values = dict(canonical_mod._VALUES)
    products = dict(canonical_mod._PRODUCTS)
    sums = dict(canonical_mod._SUMS)
    splits = dict(canonical_mod._SPLITS)
    assert sums and splits
    with solved_under(flipped):
        assert bar_involution(u) != clean
        assert r_plus_pair(1, 1) != clean_pair
        assert canonical_basis((1,) * 4, 2) == clean_table
    # the wrong values left with the block; a fresh solve shares the
    # same values, products, sums and splits as before it
    assert canonical_mod._MEMO == {}
    assert canonical_mod._VALUES == {}
    assert canonical_mod._SUMS == {}
    assert canonical_mod._SPLITS == {}
    assert bar_involution(u) == clean
    assert r_plus_pair(1, 1) == clean_pair
    canonical_basis((1,) * 6, 3).rows
    assert len(canonical_mod._MEMO) == stored
    assert canonical_mod._VALUES == values
    assert canonical_mod._PRODUCTS == products
    assert canonical_mod._SUMS == sums
    assert canonical_mod._SPLITS == splits
    assert all(v is c for c, v in canonical_mod._VALUES.items())


def _multi_factor_tables():
    """Every memoized canonical table with two or more factors."""
    return [
        table
        for key, table in canonical_mod._MEMO.items()
        if key[0] == "table" and len(key[1]) > 1
    ]


def test_every_memoized_table_keeps_its_product_coordinates():
    # _e_coords reads the product field of every factor table it meets
    clear_caches()
    canonical_basis((1,) * 7, 3)
    split_expand((2, 1, 1), 1, 2)
    embed_refine((2, 1))
    tables = _multi_factor_tables()
    assert len(tables) > 10
    for table in tables:
        assert tuple(table.product) == table.order, (table.d, table.r)


_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def test_910_table_digest():
    # the recipe of tests/golden/digest.py, one digest for every table
    # of total <= 7 and a few larger ones
    spec = importlib.util.spec_from_file_location(
        "golden_digest", os.path.join(_GOLDEN_DIR, "digest.py")
    )
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    cases = digest.cases()
    assert len(cases) == 910
    assert cases[:896] == [
        (d, r) for t in range(1, 8) for d in _compositions(t) for r in range(t + 1)
    ]
    assert digest.digest() == (
        "199bddfd5b5e8cbe37f1888068e74c24f52e9659e326ae68945e73aa41947dbc"
    )


def _reference_split(d, cut, r):
    """The dense route: each standard row b_t is back-substituted, from
    the top of the linear extension down, against the tensor products of
    the standard rows of the two factor tables.  Reads no product
    coordinates."""
    table = canonical_basis(d, r)
    products = {}
    for a in range(max(0, r - sum(d[cut:])), min(r, sum(d[:cut])) + 1):
        left, right = canonical_basis(d[:cut], a), canonical_basis(d[cut:], r - a)
        for x in left.order:
            for y in right.order:
                products[x + y] = tensor(left.rows[x], right.rows[y])
    rows = {}
    for t in table.order:
        rest, coords = table.rows[t], {}
        for s in reversed(table.order):
            c = rest.coeff(s)
            if not c.is_zero():
                coords[s] = c
                rest = rest - products[s].scale(c)
        assert rest.is_zero(), (d, cut, r, t)
        rows[t] = coords
    return rows


def test_split_at_the_first_slot_equals_the_product_coordinates():
    # the dense route against the solve
    levels = 0
    for total in range(2, 8):
        for d in _compositions(total):
            if len(d) < 2:
                continue
            for r in range(total + 1):
                assert _reference_split(d, 1, r) == canonical_basis(d, r).product, (d, r)
                levels += 1
    assert levels == 861


def test_split_matches_the_dense_reference_at_every_cut():
    cases = 0
    for d in [d for t in range(2, 8) for d in _compositions(t)] + [(0, 2, 0, 1)]:
        for cut in range(1, len(d)):
            for r in range(sum(d) + 1):
                assert split_expand(d, cut, r).rows == _reference_split(d, cut, r), (
                    d,
                    cut,
                    r,
                )
                cases += 1
    assert cases == 2379


# -- the peel kernel against the linear scan --------------------------------------


def _reference_back_substitute(remainder, table, row, what):
    """The linear scan that _peel replaced: walk the whole of table.order
    from the top down, keep each nonzero coefficient c and subtract c
    times its row, then refuse any nonzero leftover."""
    coords = {}
    for idx in reversed(table.order):
        raw = remainder.get(idx)
        if raw is None:
            continue
        c = modules_mod._value(raw)
        if c.is_zero():
            continue
        coords[idx] = c
        for w, e in row(idx).items():
            modules_mod._accumulate(remainder, w, -c, e)
    for idx, raw in remainder.items():
        if modules_mod._value(raw)._terms:
            raise TriangularityViolationError(
                f"{what} escaped the level-{table.r} table of Lambda_{table.d} at {idx}"
            )
    return coords


def _copy_accumulator(acc):
    """A copy of an _accumulate dict, summed afresh by the kernel, so
    that two back-substitutions can each consume their own."""
    copy = {}
    for k, raw in acc.items():
        modules_mod._accumulate(copy, k, ONE, modules_mod._value(raw))
    return copy


def test_canonical_coords_match_the_linear_scan_on_random_vectors():
    rng = random.Random(3141)
    coeffs = [ONE, neg(ONE), Q, QINV, Q + QINV, Laurent({-3: 2, 1: -1})]
    for total in range(1, 7):
        for d in _compositions(total):
            for r in range(total + 1):
                table = canonical_basis(d, r)
                rows = {idx: row._terms for idx, row in table.rows.items()}
                for _ in range(2):
                    support = [i for i in table.order if rng.random() < 0.5]
                    u = ModuleVector(d, {i: rng.choice(coeffs) for i in support})
                    ref = _reference_back_substitute(
                        dict(u._terms), table, rows.get, "vector"
                    )
                    assert canonical_coords(table, u) == [
                        (idx, ref[idx]) for idx in table.order if idx in ref
                    ], (d, r, u)


def test_every_back_substitution_matches_the_linear_scan(monkeypatch):
    # every split_expand and every E^(n) coordinate of total <= 6 is
    # back-substituted twice, by the kernel and by the linear scan
    kernel = canonical_mod._back_substitute
    checked = []

    def both(remainder, table, row, what):
        copy = _copy_accumulator(remainder)
        coords = kernel(remainder, table, row, what)
        # the same coordinates in the same order, highest position first
        text = what()
        ref = _reference_back_substitute(copy, table, row, text)
        assert list(coords.items()) == list(ref.items()), text
        checked.append((table.d, text))
        return coords

    clear_caches()
    monkeypatch.setattr(canonical_mod, "_back_substitute", both)
    for total in range(1, 7):
        for d in _compositions(total):
            for r in range(total + 1):
                for cut in range(1, len(d)):
                    split_expand(d, cut, r)
                for t in canonical_basis(d, r).order if len(d) > 1 else ():
                    for n in range(1, r + 1):
                        canonical_mod._e_coords(d, t, n)
    e_coords = {
        (key[1], f"E^({key[3]}) b{key[2]}")
        for key, coords in canonical_mod._MEMO.items()
        if key[0] == "E" and coords
    }
    assert len(e_coords) == 3720 and e_coords <= set(checked)
    assert sum(what.startswith("split") for _, what in checked) == 6560
    monkeypatch.undo()
    clear_caches()


# -- E^(n) in canonical coordinates ---------------------------------------------


def _assert_e_coords_positive(memo):
    """Every memoized E^(n) canonical coordinate lies in N[q, q^-1]."""
    entries = [
        (key, u, c)
        for key, coords in memo.items()
        if key[0] == "E"
        for u, c in coords.items()
    ]
    assert entries
    for key, u, c in entries:
        assert c.is_in_a() and all(n > 0 for n in c._terms.values()), (key, u, c)


def test_e_coordinates_are_positive():
    # the decomposition theorem: E^(n) acts on the canonical basis with
    # structure constants in N[q, q^-1]
    clear_caches()
    for total in range(1, 7):
        for d in _compositions(total):
            for r in range(total + 1):
                canonical_basis(d, r)
    _assert_e_coords_positive(canonical_mod._MEMO)
    assert len([k for k in canonical_mod._MEMO if k[0] == "E"]) > 100


def test_e_coordinate_positivity_check_catches_a_negated_entry():
    clear_caches()
    canonical_basis((1, 2, 2), 3)
    memo = {k: dict(v) for k, v in canonical_mod._MEMO.items() if k[0] == "E"}
    _assert_e_coords_positive(memo)
    key = max(memo, key=lambda k: len(memo[k]))
    u = next(iter(memo[key]))
    memo[key][u] = neg(memo[key][u])
    with pytest.raises(AssertionError):
        _assert_e_coords_positive(memo)


def _reference_e_coords(d, t, n):
    """E^(n) b_t by the route the solve used before the coproduct:
    act_divided on the standard-basis row of b_t, then back-substitution
    against the standard-basis rows of the level below."""
    image = act_divided(canonical_basis(d, sum(t)).rows[t], "E", n)
    if image.is_zero():
        return {}
    return dict(canonical_coords(canonical_basis(d, sum(t) - n), image))


def test_e_coordinates_match_the_standard_basis_route():
    clear_caches()
    for total in range(1, 8):
        for d in _compositions(total):
            for r in range(total + 1):
                canonical_basis(d, r)
    canonical_basis((1,) * 9, 4)
    keys = [k for k in canonical_mod._MEMO if k[0] == "E"]
    assert len(keys) > 1000
    # q^(ab) with a, b > 0 first matters for E^(2) on a part of size 2
    assert any(n >= 2 and d[0] >= 2 for _, d, _, n in keys)
    for key in keys:
        _, d, t, n = key
        assert canonical_mod._MEMO[key] == _reference_e_coords(d, t, n), key


def test_expand_row_shares_each_product_through_the_store():
    # a d'' table of (1, 1) at level 1 whose row of (1, 0) holds two
    # equal entries as different objects, under heads 0 and 1, with
    # each head's keys built as fresh tuples
    clear_caches()
    c = Laurent({-2: 1, -4: 1})
    e = Laurent({-2: 2, 0: 1})
    top = {(1, 0): e, (0, 1): Laurent({-2: 2, 0: 1})}
    rows = {
        (1, 0): ModuleVector._make((1, 1), top),
        (0, 1): ModuleVector._make((1, 1), {(0, 1): e}),
    }
    heads = {x: (rows, {w: (x,) + w for w in rows}) for x in (0, 1)}
    before = [(w, v, dict(v._terms)) for w, v in top.items()]
    data = canonical_mod._expand_row({(1, 1, 0): c, (0, 1, 0): c}, heads)
    # one product object for the value c e, wherever it lands
    product = data[(1, 1, 0)]
    assert product._terms == (c * e)._terms
    assert set(data) == {(1, 1, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1)}
    assert all(value is product for value in data.values())
    assert canonical_mod._PRODUCTS == {(c, e): product}
    assert canonical_mod._VALUES == {product: product}
    # every key is its head's own tuple, not a new concatenation
    for key in data:
        assert key is heads[key[0]][1][key[1:]]
    # a unit first summand copies its d'' row, whose entries it shares;
    # a second summand on the same head that meets an entry a reads
    # a + c e from _SUMS, shared through _VALUES, and leaves the shared
    # product, the d'' row and its entries as they were
    again = canonical_mod._expand_row({(0, 1, 0): ONE, (0, 0, 1): c}, heads)
    assert again[(0, 1, 0)] is e
    assert again[(0, 0, 1)]._terms == (e + c * e)._terms
    assert canonical_mod._SUMS == {(top[(0, 1)], product): again[(0, 0, 1)]}
    assert again[(0, 0, 1)] is canonical_mod._SUMS[e, product]
    assert canonical_mod._VALUES[again[(0, 0, 1)]] is again[(0, 0, 1)]
    assert product._terms == (c * e)._terms
    assert [(w, v, dict(v._terms)) for w, v in top.items()] == before
    assert all(after is v for (_, v, _), after in zip(before, top.values()))
    # a product met before is read, not computed again
    assert canonical_mod._expand_row({(1, 1, 0): c}, heads)[(1, 1, 0)] is product
    assert canonical_mod._PRODUCTS == {(c, e): product}
    clear_caches()


def test_expand_row_drops_a_sum_that_cancels():
    # no table of total <= 8, nor (1,)*14 at level 7, has a sum that
    # cancels, so synthetic d'' rows of (1, 1, 1) at level 1 under head
    # 0: the summands e and -e of (1, 0, 0) and (0, 1, 0) cancel at
    # (0, 1, 0)
    clear_caches()
    e, f = Laurent({-1: 1}), Laurent({0: 1, -2: 3})
    d = (1, 1, 1, 1)
    rows = {
        (1, 0, 0): ModuleVector._make(d[1:], {(1, 0, 0): ONE, (0, 1, 0): e}),
        (0, 1, 0): ModuleVector._make(d[1:], {(0, 1, 0): ONE}),
        (0, 0, 1): ModuleVector._make(d[1:], {(0, 0, 1): ONE, (0, 1, 0): f}),
    }
    heads = {0: (rows, {w: (0,) + w for w in rows})}
    coeffs = {(0, 1, 0, 0): ONE, (0, 0, 1, 0): -e}
    cancelled = canonical_mod._expand_row(coeffs, heads)
    # the entry is dropped: no zero reaches the row
    assert cancelled == {(0, 1, 0, 0): ONE}
    assert canonical_mod._SUMS[e, -e]._terms == {}
    # a third summand adds the index back: the per-entry sum
    coeffs[(0, 0, 0, 1)] = QINV
    again = canonical_mod._expand_row(coeffs, heads)
    expected = combine(
        d, ((p, tensor(V((1,), s[:1]), rows[s[1:]])) for s, p in coeffs.items())
    )
    assert again == expected._terms
    assert set(again) == {(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
    assert again[(0, 0, 1, 0)] == QINV * f
    # the copied diagonal entry is the d'' row's own; the rest are shared
    assert again[(0, 1, 0, 0)] is ONE
    for w, v in again.items():
        assert w is heads[0][1][w[1:]]
        if v is not ONE:
            assert canonical_mod._VALUES[v] is v, w
    clear_caches()


def _reference_expand(table):
    """The per-entry expansion that _expand_row replaced: each row b_t =
    sum_s p_s v_(s_0) tensor b''_(s[1:]) summed term by term through
    tensor and combine, from the product coordinates and the d'' rows."""
    d = table.d
    return {
        t: combine(
            d,
            (
                (p, tensor(V(d[:1], s[:1]), canonical_basis(d[1:], table.r - s[0]).rows[s[1:]]))
                for s, p in coords.items()
            ),
        )
        for t, coords in table.product.items()
    }


def test_rows_match_the_per_entry_expansion():
    # the block expansion against the sum through tensor and combine, on
    # every memoized table with more than one factor
    clear_caches()
    for total in range(1, 8):
        for d in _compositions(total):
            for r in range(total + 1):
                canonical_basis(d, r)
    canonical_basis((1,) * 9, 4)
    canonical_basis((2, 1, 3, 1), 3)
    tables = _multi_factor_tables()
    # the 861 levels of total <= 7 with two or more parts, and (1,)*8 at
    # levels 3 and 4 and (1,)*9 at level 4
    assert len(tables) == 864
    for table in tables:
        assert table.rows == _reference_expand(table), (table.d, table.r)


def test_expansion_leaves_the_factor_rows_as_they_were():
    # every row of (1,)*9 at level 4 is expanded through the rows of
    # (1,)*8 at levels 3 and 4, which no block may write into
    clear_caches()

    def snapshot(table):
        return {
            t: [(w, c, dict(c._terms)) for w, c in row._terms.items()]
            for t, row in table.rows.items()
        }

    factors = [canonical_basis((1,) * 8, r) for r in (3, 4)]
    before = [snapshot(table) for table in factors]
    canonical_basis((1,) * 9, 4).rows
    assert [snapshot(table) for table in factors] == before


def _rows_built(table):
    """Whether table has built its rows, read without building them."""
    try:
        object.__getattribute__(table, "rows")
    except AttributeError:
        return False
    return True


def _memo_tables():
    return [table for key, table in canonical_mod._MEMO.items() if key[0] == "table"]


@pytest.mark.parametrize(
    "solve",
    [lambda: canonical_basis((1,) * 6, 3), lambda: split_expand((1,) * 6, 3, 3)],
    ids=["canonical_basis", "split_expand"],
)
def test_a_solve_builds_no_rows_until_they_are_read(solve):
    # the solve keeps product coordinates only; the first read of rows
    # expands the table and, through its heads, the d'' tables it reads
    clear_caches()
    solve()
    tables = _memo_tables()
    # (1,)*k at the levels the solve read, for k = 2 .. 6
    assert len(tables) == 13
    assert not any(map(_rows_built, tables))
    assert canonical_mod._PRODUCTS == {} and canonical_mod._SUMS == {}
    assert canonical_mod._SPLITS
    unread = canonical_basis((1,) * 6, 4)
    top = canonical_basis((1,) * 6, 3)
    rows = top.rows
    assert top.rows is rows
    assert canonical_mod._PRODUCTS and canonical_mod._SUMS
    # the read expanded the table and, head by head, each d'' table below
    # it down to one factor, and no other
    built = {(len(t.d), t.r) for t in _memo_tables() if _rows_built(t)}
    heads = {(k, r) for k in range(1, 7) for r in range(max(k - 3, 0), min(k, 3) + 1)}
    assert built == heads
    assert not _rows_built(unread)
    for table in _memo_tables():
        if _rows_built(table) and len(table.d) > 1:
            assert table.rows == _reference_expand(table), (table.d, table.r)
    clear_caches()


def test_a_table_with_unread_rows_equals_one_built_from_explicit_rows():
    # equality, copy and pickle read the rows as fields, so an unread
    # table expands on the first of them and behaves as one built from
    # explicit rows
    clear_caches()
    d, r = (1, 2, 1, 1), 2
    lazy = canonical_basis(d, r)
    explicit = CanonicalTable(d, r, lazy.order, _reference_expand(lazy), lazy.product)
    assert not _rows_built(lazy)
    assert lazy == explicit
    assert _rows_built(lazy)
    for how in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        clear_caches()
        unread = canonical_basis(d, r)
        assert not _rows_built(unread)
        again = how(unread)
        assert again == explicit and again.product == explicit.product
        assert type(again) is CanonicalTable and _rows_built(again)
    clear_caches()


def test_each_coefficient_value_is_split_once():
    # purity leaves the solve of (1,)*9 at level 4 a handful of distinct
    # coefficients to split, each kept once with its parity, and every
    # part shared through _VALUES
    clear_caches()
    canonical_basis((1,) * 9, 4)
    splits = canonical_mod._SPLITS
    assert len(splits) == 5
    values = canonical_mod._VALUES
    for (c, parity), (beta, p) in splits.items():
        assert parity in (0, 2)
        assert beta + p == c and beta == beta.bar()
        assert all(h < 0 for h in p._terms)
        for v in (c, beta, p):
            assert values[v] is v
    clear_caches()


def test_every_e_key_holds_its_tables_own_tuples():
    # an E^(n) memo key keeps the composition and the index tuple of the
    # table it reads, not a fresh slice of its caller's
    clear_caches()
    canonical_basis((1,) * 10, 5)
    keys = [key for key in canonical_mod._MEMO if key[0] == "E"]
    assert len(keys) > 400
    for _, d, t, n in keys:
        table = canonical_mod._MEMO["table", d, sum(t)]
        assert d is table.d and t is table.order[table._position[t]]
    # one composition object per table, far fewer than the keys
    assert len({id(key[1]) for key in keys}) < 30
    clear_caches()


def test_rows_keep_one_index_tuple_per_level_and_shared_coefficients():
    # what keeps the expanded rows small at scale: every term of every
    # row is keyed by the tuple in its table's order, and every
    # coefficient is the _VALUES instance of its value
    clear_caches()
    for total in range(2, 7):
        for d in _compositions(total):
            for r in range(total + 1):
                canonical_basis(d, r)
    canonical_basis((1,) * 9, 4)
    tables = _multi_factor_tables()
    assert len(tables) > 300
    values = canonical_mod._VALUES
    for table in tables:
        own = {idx: idx for idx in table.order}
        for t, row in table.rows.items():
            assert t is own[t]
            for w, c in row._terms.items():
                assert w is own[w], (table.d, table.r, t, w)
                assert values[c] is c, (table.d, table.r, t, w)


def test_no_unit_products_in_the_solve_helpers_scale_or_gram(monkeypatch):
    # a factor equal to 1 costs a Laurent product nowhere in these callers
    watched = {"_accumulate", "_add_e_image", "scale", "_gram", "_times"}
    products, units = defaultdict(int), []
    mul = Laurent.__mul__

    def spy(a, b):
        frame = sys._getframe(1)
        # a comprehension's frame stands for the function it is written in
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        caller = frame.f_code.co_name
        if caller in watched:
            products[caller] += 1
            if ONE._terms in (a._terms, getattr(b, "_terms", None)):
                units.append((caller, a, b))
        return mul(a, b)

    clear_caches()
    monkeypatch.setattr(Laurent, "__mul__", spy)
    assert all(result.passed for result in run_all(4))
    monkeypatch.undo()
    clear_caches()
    assert units == []
    # the watched callers still multiply, and the spy sees their products
    assert products["scale"] > 0 and products["_times"] > 0, dict(products)


# -- fault injection -----------------------------------------------------------


def test_kappa_override_changes_table_without_poisoning_caches():
    ks = compute_quasi_r(1)
    flipped = [ks[0], neg(ks[1])]
    clean = canonical_basis((1, 1), 1)
    assert clean.rows[(0, 1)] == V((1, 1), (0, 1)) + V((1, 1), (1, 0)).scale(QINV)
    with solved_under(flipped):
        wrong = _reference_recursion((1, 1), 1)
        assert canonical_basis((1, 1), 1) == clean
    assert wrong.rows[(0, 1)] == V((1, 1), (0, 1)) + V((1, 1), (1, 0)).scale(
        neg(QINV)
    )
    assert canonical_mod._MEMO == {}
    assert canonical_basis((1, 1), 1) == clean
    assert canonical_mod._MEMO[("table", (1, 1), 1)] == clean


def test_theta_rejects_short_coefficient_list():
    clean = canonical_basis((2, 2), 2)
    with pytest.raises(ValueError, match="too short"), solved_under([ONE]):
        bar_involution(V((2, 2), (0, 2)))
    with pytest.raises(ValueError, match="too short"), solved_under([ONE]):
        _reference_recursion((2, 2), 2)
    with solved_under([ONE]):
        assert canonical_basis((2, 2), 2) == clean


def test_kappa_fault_raises_on_non_unitriangular_psi_column():
    ks = compute_quasi_r(1)
    clean = canonical_basis((1, 1), 1)
    fault = [Laurent.from_int(2), ks[1]]
    with pytest.raises(TriangularityViolationError, match="diagonal"):
        with solved_under(fault):
            _reference_recursion((1, 1), 1)
    assert canonical_mod._MEMO == {}
    with solved_under(fault):
        assert canonical_basis((1, 1), 1) == clean


def _plant_in_monomial(monkeypatch, row, planted):
    """Solve the factor tables of (1,1,1) at level 1, then let the
    monomial of b_row on that level carry the entries of planted in
    place of its own.  Returns the number of memo entries before the
    faulty solve."""
    d = (1, 1, 1)
    clear_caches()
    canonical_basis((1, 1), 0)
    canonical_basis((1, 1), 1)
    real = canonical_mod._add_e_image

    def faulty(image, d_, s, p, n):
        real(image, d_, s, p, n)
        if d_ == d and (s[0] - n,) + s[1:] == row:
            image.update(planted)

    monkeypatch.setattr(canonical_mod, "_add_e_image", faulty)
    return len(canonical_mod._MEMO)


def _refusal(error, row, idx):
    """Solve (1,1,1) at level 1 under a planted fault: the error of type
    error names the composition, the row and the index, and the failed
    table is not stored.  Returns the message."""
    with pytest.raises(error) as info:
        canonical_basis((1, 1, 1), 1)
    message = str(info.value)
    assert "Lambda_(1, 1, 1)" in message
    assert f"b{row}" in message
    assert f"{idx}" in message
    assert ("table", (1, 1, 1), 1) not in canonical_mod._MEMO
    return message


@pytest.mark.parametrize(
    "planted, pattern",
    [((0, 1, 0), "outside the lower closure"), ((1, 1, 0), "off level 1")],
)
def test_monomial_support_fault_raises(monkeypatch, planted, pattern):
    bottom = (1, 0, 0)
    stored = _plant_in_monomial(monkeypatch, bottom, {planted: QINV})
    message = _refusal(TriangularityViolationError, bottom, planted)
    assert f"supported at {planted}" in message
    assert pattern in message
    # the bottom row is the first solved, so the solve stored nothing
    assert len(canonical_mod._MEMO) == stored


def test_monomial_with_a_wrong_leading_coefficient_raises(monkeypatch):
    row = (0, 1, 0)
    _plant_in_monomial(monkeypatch, row, {row: Laurent.from_int(2)})
    message = _refusal(TriangularityViolationError, row, row)
    assert "leading coefficient 2" in message


def test_walk_leftover_raises(monkeypatch):
    # with the closure test disarmed, an entry above the row is never
    # walked and is left over
    bottom, above = (1, 0, 0), (0, 0, 1)
    _plant_in_monomial(monkeypatch, bottom, {above: QINV})
    monkeypatch.setattr(orbits, "prefix_dominates", lambda ps, pr: True)
    message = _refusal(TriangularityViolationError, bottom, above)
    assert message == (
        "the walk of b(1, 0, 0) on Lambda_(1, 1, 1) left a remainder at (0, 0, 1)"
    )


def test_negative_multiplicity_raises(monkeypatch):
    # dim O(0,0,1) - dim O(1,0,0) = 2, so a constant has the right
    # parity; its bar-invariant part -1 is negative
    row, s = (0, 0, 1), (1, 0, 0)
    _plant_in_monomial(monkeypatch, row, {s: -ONE})
    message = _refusal(PurityViolationError, row, s)
    assert "negative" in message
    assert _assert_no_split_of(-ONE, row, s) == message


@pytest.mark.parametrize(
    "s, c",
    [((0, 1, 0), ONE), ((1, 0, 0), Laurent({1: 1}))],
    ids=["even-exponent-at-odd-distance", "half-exponent"],
)
def test_multiplicity_of_the_wrong_parity_raises(monkeypatch, s, c):
    # dim O(0,0,1) - dim O(0,1,0) = 1 and dim O(0,0,1) - dim O(1,0,0) = 2
    row = (0, 0, 1)
    _plant_in_monomial(monkeypatch, row, {s: c})
    message = _refusal(PurityViolationError, row, s)
    assert "parity" in message
    assert _assert_no_split_of(c, row, s) == message


def _assert_no_split_of(c, row, s):
    """A coefficient c refused at s in b_row on (1,1,1) leaves no split
    behind, so a second solve refuses it again with the same text."""
    d = (1, 1, 1)
    parity = 2 * ((orbits._orbit_dim(d, row) - orbits._orbit_dim(d, s)) % 2)
    assert (c, parity) not in canonical_mod._SPLITS
    message = _refusal(PurityViolationError, row, s)
    assert (c, parity) not in canonical_mod._SPLITS
    return message


def test_a_value_split_at_one_parity_is_refused_at_the_other(monkeypatch):
    # the factor table (1,1) at level 1 splits q^-1 at an odd distance;
    # the same value at the even distance dim O(0,0,1) - dim O(1,0,0) = 2
    # is still refused, with its own row and index
    row, s = (0, 0, 1), (1, 0, 0)
    _plant_in_monomial(monkeypatch, row, {s: QINV})
    assert (QINV, 2) in canonical_mod._SPLITS
    message = _refusal(PurityViolationError, row, s)
    assert "parity" in message
    assert _assert_no_split_of(QINV, row, s) == message


def test_kappa_fault_raises_on_non_antisymmetric_obstruction():
    clean = {d: canonical_basis(d, r) for d, r in [((1, 1), 1), ((2, 2), 2)]}
    with pytest.raises(ObstructionNotAntisymmetricError), solved_under([ONE, ONE]):
        _reference_recursion((1, 1), 1)
    ks = compute_quasi_r(2)
    with pytest.raises(ObstructionNotAntisymmetricError):
        with solved_under([ks[0], ks[1], ZERO]):
            _reference_recursion((2, 2), 2)
    with solved_under([ONE, ONE]):
        assert canonical_basis((1, 1), 1) == clean[(1, 1)]
    with solved_under([ks[0], ks[1], ZERO]):
        assert canonical_basis((2, 2), 2) == clean[(2, 2)]


# -- split expansion -----------------------------------------------------------


def test_split_table_1_1_1():
    s = split_expand((1, 1, 1), 1, 1)
    assert (s.d, s.cut, s.r) == ((1, 1, 1), 1, 1)
    assert s.order == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert s.rows[(1, 0, 0)] == {(1, 0, 0): ONE}
    assert s.rows[(0, 1, 0)] == {(0, 1, 0): ONE, (1, 0, 0): QINV}
    assert s.rows[(0, 0, 1)] == {(0, 0, 1): ONE, (1, 0, 0): q_power(-2)}


def test_split_table_2_2():
    s = split_expand((2, 2), 1, 2)
    assert s.rows[(2, 0)] == {(2, 0): ONE}
    assert s.rows[(1, 1)] == {(1, 1): ONE, (2, 0): Laurent({-2: 1, -6: 1})}
    assert s.rows[(0, 2)] == {(0, 2): ONE, (1, 1): QINV, (2, 0): q_power(-4)}


def test_split_leading_coefficient_is_one():
    for d, cut in [((2, 1), 1), ((1, 2, 1), 2), ((2, 2), 1)]:
        for r in range(sum(d) + 1):
            s = split_expand(d, cut, r)
            for idx in s.order:
                assert s.rows[idx][idx] == ONE


def test_split_validation():
    with pytest.raises(ValueError):
        split_expand((1, 1), 0, 1)
    with pytest.raises(ValueError):
        split_expand((1, 1), 2, 1)
    with pytest.raises(ValueError):
        split_expand((1, 1), 1, 3)


def test_split_json_obj_shape():
    obj = split_expand((1, 1, 1), 1, 1).to_json_obj()
    assert obj["d"] == [1, 1, 1] and obj["cut"] == 1 and obj["r"] == 1
    middle = obj["rows"][1]
    assert middle["r_index"] == [0, 1, 0]
    assert middle["terms"] == [
        {"s_index": [1, 0, 0], "coeff": [[-2, "1"]]},
        {"s_index": [0, 1, 0], "coeff": [[0, "1"]]},
    ]


def test_split_render():
    text = split_expand((1, 1, 1), 1, 1).render()
    assert text == (
        "split expansion d=(1,1,1) cut=1 r=1\n"
        "b(1,0,0) = b(1)*b(0,0)\n"
        "b(0,1,0) = b(0)*b(1,0) + q^-1 b(1)*b(0,0)\n"
        "b(0,0,1) = b(0)*b(0,1) + q^-2 b(1)*b(0,0)\n"
    )


def test_split_is_json_roundtrip_stable():
    s = split_expand((2, 2), 1, 2)
    assert json.loads(json.dumps(s.to_json_obj())) == s.to_json_obj()


# -- JSON documents ----------------------------------------------------------------


def _reference_json_obj(x):
    """The JSON builders before equal values shared one sub-object: a
    fresh to_pairs() list, index list and term dict for every entry."""
    if isinstance(x, ModuleVector):
        return {
            "d": list(x.d),
            "terms": [{"r": list(idx), "coeff": c.to_pairs()} for idx, c in x.items()],
        }
    if isinstance(x, CanonicalTable):
        return {
            "d": list(x.d),
            "r": x.r,
            "rows": [
                {"r_index": list(idx), "terms": _reference_json_obj(x.rows[idx])["terms"]}
                for idx in x.order
            ],
        }
    position = {idx: i for i, idx in enumerate(x.order)}
    return {
        "d": list(x.d),
        "cut": x.cut,
        "r": x.r,
        "rows": [
            {
                "r_index": list(idx),
                "terms": [
                    {"s_index": list(s), "coeff": c.to_pairs()}
                    for s, c in sorted(x.rows[idx].items(), key=lambda kv: position[kv[0]])
                ],
            }
            for idx in x.order
        ],
    }


def _assert_same_document(new, reference, case):
    assert new == reference, case
    assert json.dumps(new, indent=2) == json.dumps(reference, indent=2), case
    compact = {"sort_keys": True, "separators": (",", ":")}
    assert json.dumps(new, **compact) == json.dumps(reference, **compact), case


def test_json_builders_match_the_reference_builders():
    for total in range(1, 8):
        for d in _compositions(total):
            for r in range(total + 1):
                table = canonical_basis(d, r)
                _assert_same_document(table.to_json_obj(), _reference_json_obj(table), (d, r))
                for idx, row in table.rows.items():
                    _assert_same_document(row.to_json_obj(), _reference_json_obj(row), idx)
                for cut in range(1, len(d)):
                    split = split_expand(d, cut, r)
                    _assert_same_document(
                        split.to_json_obj(), _reference_json_obj(split), (d, cut, r)
                    )
    for d in [(1, 1, 1, 1), (2, 1, 2), (2, 2)]:
        for idx in (i for r in range(sum(d) + 1) for i in enumerate_basis(d, r)):
            image = bar_involution(V(d, idx))
            _assert_same_document(image.to_json_obj(), _reference_json_obj(image), idx)


def _assert_equal_values_shared(objs):
    """Some of objs repeat a value, and equal values are one object."""
    values = {json.dumps(o) for o in objs}
    assert len(values) < len(objs)
    assert len({id(o) for o in objs}) == len(values)


def test_equal_values_share_one_sub_object():
    obj = canonical_basis((1,) * 4, 2).to_json_obj()
    terms = [t for row in obj["rows"] for t in row["terms"]]
    _assert_equal_values_shared([t["coeff"] for t in terms])
    _assert_equal_values_shared([row["r_index"] for row in obj["rows"]] + [t["r"] for t in terms])
    _assert_equal_values_shared(terms)

    obj = split_expand((1,) * 4, 2, 2).to_json_obj()
    terms = [t for row in obj["rows"] for t in row["terms"]]
    _assert_equal_values_shared([t["coeff"] for t in terms])
    _assert_equal_values_shared(
        [row["r_index"] for row in obj["rows"]] + [t["s_index"] for t in terms]
    )
    _assert_equal_values_shared(terms)

    # '-q + q^-1' twice
    obj = bar_involution(V((1, 1, 1, 1), (0, 1, 0, 1))).to_json_obj()
    _assert_equal_values_shared([t["coeff"] for t in obj["terms"]])


# -- table writers ------------------------------------------------------------------


def _reference_canonical_json(table):
    """CanonicalTable.to_json_obj as it was written before the shared row
    writers: the terms in ModuleVector.items() order."""
    parts = _JsonParts()
    return {
        "d": list(table.d),
        "r": table.r,
        "rows": [
            {"r_index": parts.index(idx), "terms": parts.terms(table.rows[idx].items())}
            for idx in table.order
        ],
    }


def _reference_canonical_render(table):
    """CanonicalTable.render as it was written before the shared row
    writers, its positions taken from `order` rather than _position."""
    position = {idx: i for i, idx in enumerate(table.order)}
    labels = {idx: format_index(idx) for idx in table.order}
    texts: dict = {}
    lines = [f"canonical basis d={format_index(table.d)} r={table.r}"]
    for idx in table.order:
        row = sorted(table.rows[idx]._terms.items(), key=lambda kv: -position[kv[0]])
        terms = render_terms(((c, f"v{labels[s]}") for s, c in row), texts)
        lines.append(f"b{labels[idx]} = {terms}")
    return "\n".join(lines) + "\n"


def _reference_split_json(split):
    """SplitTable.to_json_obj as it was written before the shared row writers."""
    position = {idx: i for i, idx in enumerate(split.order)}
    parts = _JsonParts("s_index")
    return {
        "d": list(split.d),
        "cut": split.cut,
        "r": split.r,
        "rows": [
            {
                "r_index": parts.index(idx),
                "terms": parts.terms(
                    sorted(split.rows[idx].items(), key=lambda kv: position[kv[0]])
                ),
            }
            for idx in split.order
        ],
    }


def _reference_split_render(split):
    """SplitTable.render as it was written before the shared row writers."""
    position = {idx: i for i, idx in enumerate(split.order)}
    lines = [f"split expansion d={format_index(split.d)} cut={split.cut} r={split.r}"]
    for idx in split.order:
        terms = render_terms(
            (c, f"b{format_index(s[: split.cut])}*b{format_index(s[split.cut :])}")
            for s, c in sorted(split.rows[idx].items(), key=lambda kv: -position[kv[0]])
        )
        lines.append(f"b{format_index(idx)} = {terms}")
    return "\n".join(lines) + "\n"


def _assert_same_bytes(table, reference_json, reference_render, case):
    assert table.render() == reference_render(table), case
    new = json.dumps(table.to_json_obj(), indent=2)
    assert new == json.dumps(reference_json(table), indent=2), case


def test_row_writers_match_the_reference_writers_byte_for_byte():
    cases = [d for total in range(1, 7) for d in _compositions(total)] + [(0, 2, 0, 1)]
    for d in cases:
        for r in range(sum(d) + 1):
            table = canonical_basis(d, r)
            _assert_same_bytes(
                table, _reference_canonical_json, _reference_canonical_render, (d, r)
            )
            for cut in range(1, len(d)):
                split = split_expand(d, cut, r)
                _assert_same_bytes(
                    split, _reference_split_json, _reference_split_render, (d, cut, r)
                )


# -- refinement embedding --------------------------------------------------------


def test_embed_refine_standard_columns():
    m = embed_refine((2,))
    assert m.source == (2,) and m.target == (1, 1)
    assert m.columns[(0,)] == V((1, 1), (0, 0))
    assert m.columns[(1,)] == V((1, 1), (0, 1)) + V((1, 1), (1, 0)).scale(QINV)
    assert m.columns[(2,)] == V((1, 1), (1, 1))


def test_embed_refine_sends_canonical_to_canonical():
    m = embed_refine((2,))
    src = canonical_basis((2,), 1)
    dst = canonical_basis((1, 1), 1)
    assert m.apply(src.rows[(1,)]) == dst.rows[(0, 1)]

    m22 = embed_refine((2, 2))
    assert m22.target == (1, 1, 1, 1)
    assert len(m22.columns) == 9
    src = canonical_basis((2, 2), 2)
    dst = canonical_basis((1, 1, 1, 1), 2)
    assert m22.apply(src.rows[(1, 1)]) == dst.rows[(0, 1, 0, 1)]
    assert m22.apply(src.rows[(2, 0)]) == dst.rows[(1, 1, 0, 0)]


def test_embed_refine_is_isometric_and_intertwines():
    for d in [(2,), (2, 1), (3,)]:
        m = embed_refine(d)
        for r in range(sum(d) + 1):
            for i in enumerate_basis(d, r):
                u = V(d, i)
                assert m.apply(act_E(u)) == act_E(m.apply(u))
                assert m.apply(act_F(u)) == act_F(m.apply(u))
                assert m.apply(act_K(u)) == act_K(m.apply(u))
                for j in enumerate_basis(d, r):
                    w = V(d, j)
                    assert inner_product(u, w) == inner_product(
                        m.apply(u), m.apply(w)
                    )


def _reference_embed(d):
    """The standard columns of the refinement embedding as the package
    once built them, from the canonical tables: each b_s goes to the
    canonical basis element at its dense refinement, and v_idx is
    expanded over the canonical basis of its level and its images
    combined."""
    target = (1,) * sum(d)
    columns = {}
    for r in range(sum(d) + 1):
        table = canonical_basis(d, r)
        fine = canonical_basis(target, r)
        for idx in table.order:
            columns[idx] = combine(
                target,
                (
                    (c, fine.rows[orbits.dense_cell(d, s)])
                    for s, c in canonical_coords(table, V(d, idx))
                ),
            )
    return columns


def test_embed_refine_matches_the_canonical_table_route():
    ds = [d for total in range(1, 8) for d in _compositions(total)]
    ds += [(0, 2, 0, 1), (2, 0), (0, 3), (1, 0, 1)]
    for d in ds:
        assert embed_refine(d).columns == _reference_embed(d), d


def test_embedding_check_rejects_a_column_across_two_levels():
    clear_caches()
    m = embed_refine((2, 1))
    columns = dict(m.columns)
    # the image of v(1,0) gains a term one level up
    columns[(1, 0)] = columns[(1, 0)] + V((1, 1, 1), (1, 1, 0)).scale(QINV)
    with pytest.raises(EmbeddingCheckFailedError, match=r"sends \(1, 0\) off level 1"):
        canonical_mod._assert_embedding(LinMap(m.source, m.target, columns))
    canonical_mod._assert_embedding(m)


def test_embed_refine_refuses_an_image_that_is_not_an_isometry(monkeypatch):
    # every image F^(a) v_(0,...,0) scaled by q still intertwines and
    # keeps its level, but pairs with itself to q^2 times its Gram entry
    real = canonical_mod.act_divided
    clear_caches()
    monkeypatch.setattr(
        canonical_mod, "act_divided", lambda u, gen, a: real(u, gen, a).scale(Q)
    )
    with pytest.raises(EmbeddingCheckFailedError) as info:
        embed_refine((2,))
    assert str(info.value) == (
        "embedding of Lambda_(2,) is not an isometry at ((0,), (0,))"
    )
    # the embed suite records each refusal and goes on to the next
    # composition
    res = SUITES["embed"](2)
    assert res.failures == [
        f"embed_refine({d}) raised EmbeddingCheckFailedError" for d in compositions(2)
    ]
    clear_caches()


def test_embed_refine_refuses_an_image_off_its_level(monkeypatch):
    # v_a goes to F^(a+1) v_(0,...,0), capped at the slot count
    real = canonical_mod.act_divided
    clear_caches()
    monkeypatch.setattr(
        canonical_mod,
        "act_divided",
        lambda u, gen, a: real(u, gen, min(a + 1, len(u.d))),
    )
    with pytest.raises(EmbeddingCheckFailedError) as info:
        embed_refine((2,))
    assert str(info.value) == "embedding of Lambda_(2,) sends (0,) off level 0"
    clear_caches()


def test_embed_refine_rejects_zero_total():
    with pytest.raises(ValueError):
        embed_refine((0, 0))
