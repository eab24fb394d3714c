"""Braiding maps: pair braidings, composed moves along reduced words,
matrix extraction, and the advertised failure modes."""

import re

import pytest

from qsl2 import (
    Laurent,
    ModuleVector,
    PermWord,
    canonical_basis,
    canonical_coords,
    compositions,
    lift_word,
    matrix_in_basis,
    r_minus_pair,
    r_move,
    r_plus_pair,
)
from qsl2.errors import NonReducedWordError
from qsl2.modules import LinMap, act_E, act_F, act_K, combine, enumerate_basis, theta
from qsl2.qring import ONE, Q, QINV, ZERO, q_power, quantum_factorial
from qsl2.rmatrix import _cartan_step, _r_plus_columns, _swap_step

from conftest import r_plus_columns

V = ModuleVector.basis


def L(*pairs):
    return Laurent({h: c for h, c in pairs})


# -- words ----------------------------------------------------------------------


def test_permword_mechanics():
    w = PermWord(3, (1, 2, 1))
    assert w.permutation() == (2, 1, 0)
    assert w.inversions() == 3
    assert w.is_reduced()
    assert w.apply_to(("a", "b", "c")) == ("c", "b", "a")
    assert not PermWord(3, (1, 1)).is_reduced()
    assert PermWord(4, ()).permutation() == (0, 1, 2, 3)


def test_permword_validation():
    with pytest.raises(ValueError):
        PermWord(0, ())
    with pytest.raises(ValueError):
        PermWord(2, (2,))
    with pytest.raises(ValueError):
        PermWord(3, (1,)).apply_to((1, 1))


def test_permword_stores_a_tuple_and_rejects_non_int_letters():
    w = PermWord(3, [1, 2])
    assert w.letters == (1, 2)
    assert hash(w) == hash(PermWord(3, (1, 2)))
    assert w == PermWord(3, (1, 2))
    with pytest.raises(ValueError, match="letter 1.0 is not an int"):
        PermWord(3, (1.0,))


def test_permword_rejects_a_non_int_slot_count():
    for slots in (2.5, True, "3"):
        named = re.escape(f"slots {slots!r} is not an int")
        with pytest.raises(ValueError, match=named):
            PermWord(slots, ())
    with pytest.raises(ValueError, match=re.escape("slots 2.0 is not an int")):
        r_move((1, 1), PermWord(2.0, [1]))


def test_move_rejects_a_non_int_letter():
    with pytest.raises(ValueError, match="letter 1.0 is not an int"):
        r_move((1, 1, 1), [1.0])


def test_lift_word_checks_the_slot_count_of_a_permword():
    with pytest.raises(ValueError, match=r"word on 3 slots against \(1, 1\)"):
        lift_word((1, 1), PermWord(3, (1,)))
    with pytest.raises(ValueError, match=r"word on 3 slots against \(1, 1\)"):
        r_move((1, 1), PermWord(3, (1,)))
    with pytest.raises(ValueError, match="letter 2 out of range for 2 slots"):
        lift_word((1, 1), [2])


def test_lift_word_anchors():
    assert lift_word((2, 2), [1]) == [2, 1, 3, 2]
    assert lift_word((2, 1), [1]) == [2, 1]
    assert lift_word((1, 2), [1]) == [1, 2]
    assert lift_word((2, 2, 1), [2, 1]) == [4, 3, 2, 1]


def test_lift_word_stays_reduced():
    for d, word in [((2, 2), [1]), ((2, 1, 3), [1, 2]), ((3, 2, 1), [2, 1, 2])]:
        if not PermWord(len(d), tuple(word)).is_reduced():
            continue
        lifted = lift_word(d, word)
        assert PermWord(sum(d), tuple(lifted)).is_reduced()


# -- pair braidings ----------------------------------------------------------------


def test_pair_1_1_canonical_matrices():
    mats = matrix_in_basis(r_plus_pair(1, 1), "canonical")
    assert mats[0] == [[L((4, -1))]]
    assert mats[1] == [[ONE, ZERO], [L((2, -1)), L((4, -1))]]
    assert mats[2] == [[L((4, -1))]]

    minus = matrix_in_basis(r_minus_pair(1, 1), "canonical")
    assert minus[0] == [[L((-4, -1))]]
    assert minus[1] == [[ONE, ZERO], [L((-2, -1)), L((-4, -1))]]
    assert minus[2] == [[L((-4, -1))]]


def test_pair_1_1_standard_matrix():
    mats = matrix_in_basis(r_plus_pair(1, 1), "standard")
    assert mats[1] == [[ZERO, L((2, -1))], [L((2, -1)), L((4, -1), (0, 1))]]


def test_pair_2_2_canonical_matrices():
    mats = matrix_in_basis(r_move((2, 2), [1]), "canonical")
    assert mats[0] == [[q_power(8)]]
    assert mats[1] == [[L((8, -1)), ZERO], [q_power(6), q_power(8)]]
    assert mats[2] == [
        [q_power(2), ZERO, ZERO],
        [L((6, -1)), L((8, -1)), ZERO],
        [q_power(4), L((14, 1), (10, 1)), q_power(8)],
    ]
    assert mats[3] == [[L((8, -1)), ZERO], [q_power(6), q_power(8)]]
    assert mats[4] == [[q_power(8)]]

    minus = matrix_in_basis(r_move((2, 2), [1], sign="minus"), "canonical")
    for lvl, mat in mats.items():
        assert minus[lvl] == [[c.bar() for c in row] for row in mat]


def test_pair_with_empty_factor_is_relabeling():
    for d1, d2 in [(2, 0), (0, 2), (3, 0)]:
        m = r_plus_pair(d1, d2)
        assert m.target == (d2, d1)
        for r in range(d1 + d2 + 1):
            for idx in enumerate_basis((d1, d2), r):
                assert m.apply(V((d1, d2), idx)) == V((d2, d1), (idx[1], idx[0]))


def test_pair_highest_and_lowest_weight_scaling():
    for d1 in range(4):
        for d2 in range(4):
            m = r_plus_pair(d1, d2)
            e = d1 * d2
            scalar = Laurent({4 * e: (-1) ** e})
            top = V((d1, d2), (d1, d2))
            bottom = V((d1, d2), (0, 0))
            assert m.apply(top) == V((d2, d1), (d2, d1)).scale(scalar)
            assert m.apply(bottom) == V((d2, d1), (0, 0)).scale(scalar)


def test_pair_entries_are_laurent_in_q():
    for d1 in range(1, 4):
        for d2 in range(1, 4):
            for m in (r_plus_pair(d1, d2), r_minus_pair(d1, d2)):
                for image in m.columns.values():
                    for _, c in image.items():
                        assert c.is_in_a()


def test_pair_inverse_both_ways():
    for d1, d2 in [(1, 1), (1, 2), (2, 2)]:
        p = r_plus_pair(d1, d2)
        n = r_minus_pair(d2, d1)
        assert n.compose(p).columns == LinMap.identity((d1, d2)).columns
        assert p.compose(n).columns == LinMap.identity((d2, d1)).columns


def _reference_r_plus(d1, d2):
    """The standard columns of R_+ as the package once built them, from
    the closed form Theta_R = sum_n q^(n(n-1)/2) (q - q^-1)^n [n]!
    F^(n) tensor E^(n), then the Cartan step, the swap and the scalar."""
    coeffs = [
        q_power(n * (n - 1) // 2) * (Q - QINV) ** n * quantum_factorial(n)
        for n in range(min(d1, d2) + 1)
    ]
    scalar = Laurent({3 * d1 * d2: (-1) ** (d1 * d2)})
    return {
        (a, b): _swap_step(
            _cartan_step(theta(V((d1,), (a,)), V((d2,), (b,)), coeffs.__getitem__))
        ).scale(scalar)
        for r in range(d1 + d2 + 1)
        for a, b in enumerate_basis((d1, d2), r)
    }


def test_r_plus_matches_the_closed_form_theta():
    for d1 in range(6):
        for d2 in range(6):
            assert _r_plus_columns(d1, d2) == _reference_r_plus(d1, d2), (d1, d2)


def _reference_r_minus(d1, d2):
    """The standard columns of R_- as the package once built them, from
    the canonical tables: each b_s goes to the entrywise bar of the
    canonical coordinates of R_+ b_s, and v_idx is expanded over the
    canonical basis of its level and its images combined."""
    plus = r_plus_pair(d1, d2)
    src, tgt = (d1, d2), (d2, d1)
    columns = {}
    for r in range(d1 + d2 + 1):
        s_table = canonical_basis(src, r)
        t_table = canonical_basis(tgt, r)
        minus_on_b = {
            s: combine(
                tgt,
                (
                    (c.bar(), t_table.rows[t])
                    for t, c in canonical_coords(t_table, plus.apply(s_table.rows[s]))
                ),
            )
            for s in s_table.order
        }
        for idx in s_table.order:
            columns[idx] = combine(
                tgt,
                ((c, minus_on_b[s]) for s, c in canonical_coords(s_table, V(src, idx))),
            )
    return columns


def test_r_minus_matches_the_canonical_table_route():
    for d1 in range(5):
        for d2 in range(5):
            if d1 or d2:
                minus = r_minus_pair(d1, d2)
                assert minus.columns == _reference_r_minus(d1, d2), (d1, d2)


def test_pair_intertwines_module_actions():
    for d1, d2 in [(1, 1), (1, 2), (2, 2)]:
        m = r_plus_pair(d1, d2)
        for r in range(d1 + d2 + 1):
            for idx in enumerate_basis((d1, d2), r):
                u = V((d1, d2), idx)
                assert m.apply(act_E(u)) == act_E(m.apply(u))
                assert m.apply(act_F(u)) == act_F(m.apply(u))
                assert m.apply(act_K(u)) == act_K(m.apply(u))


def test_pair_validation():
    with pytest.raises(ValueError):
        r_plus_pair(-1, 2)
    with pytest.raises(ValueError):
        r_minus_pair(2, -1)


def test_pair_factor_sizes_are_ints_before_the_memo_is_read():
    # True == 1 and hash(True) == hash(1), so a key built before the
    # check would serve the (1, 1) braiding; 1.0 would reach Laurent
    r_plus_pair(1, 1)
    r_minus_pair(1, 1)
    for pair in (r_plus_pair, r_minus_pair):
        for d1, d2 in ((True, 1), (1, True), (1.0, 1)):
            with pytest.raises(ValueError, match="not a composition"):
                pair(d1, d2)


# -- composed moves ----------------------------------------------------------------


def test_move_tracks_composition_and_composes_left_to_right():
    m12 = r_move((1, 1, 2), [1, 2])
    assert m12.source == (1, 1, 2)
    assert m12.target == (1, 2, 1)
    m1 = r_move((1, 1, 2), [1])
    m2 = r_move(m1.target, [2])
    assert m12.columns == m2.compose(m1).columns


def test_move_depends_only_on_permutation():
    a = r_move((1, 1, 1, 1), [2, 1, 3, 2])
    b = r_move((1, 1, 1, 1), [2, 3, 1, 2])
    assert PermWord(4, (2, 1, 3, 2)).permutation() == PermWord(
        4, (2, 3, 1, 2)
    ).permutation()
    assert a.target == b.target
    assert a.columns == b.columns


def test_move_satisfies_braid_relation():
    for d in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]:
        a = r_move(d, [1, 2, 1])
        b = r_move(d, [2, 1, 2])
        assert a.columns == b.columns


def test_move_rejects_non_reduced_words():
    with pytest.raises(NonReducedWordError):
        r_move((1, 1, 1), [1, 1])
    with pytest.raises(NonReducedWordError):
        r_move((1, 1, 1), [1, 2, 1, 2])
    with pytest.raises(ValueError):
        r_move((1, 1), [2])


def _extend_pair(pair, c, a):
    """id (x) pair (x) id, the pair map eating slots a-1 and a of
    Lambda_c (letters are 1-based)."""
    new_c = c[: a - 1] + (c[a], c[a - 1]) + c[a + 1 :]
    columns = {}
    for r in range(sum(c) + 1):
        for idx in enumerate_basis(c, r):
            data = {
                idx[: a - 1] + pidx + idx[a + 1 :]: coeff
                for pidx, coeff in pair.columns[idx[a - 1], idx[a]].unordered_items()
            }
            columns[idx] = ModuleVector._make(new_c, data)
    return LinMap(c, new_c, columns)


def _reference_r_move(d, word, sign, before=None):
    """The move as the package once built it: each letter's pair
    braiding extended to id (x) pair (x) id on the evolving composition,
    the extensions composed letter by letter, left to right.  before,
    if given, is this route's move along word[:-1], and only the last
    letter is composed onto it."""
    pair_of = r_plus_pair if sign == "plus" else r_minus_pair
    total, letters = (LinMap.identity(d), word) if before is None else (before, word[-1:])
    for a in letters:
        c = total.target
        total = _extend_pair(pair_of(c[a - 1], c[a]), c, a).compose(total)
    return total


def _one_reduced_word_per_permutation(slots):
    """The first word reaching each permutation of S_slots, breadth
    first, so the shortest and hence a reduced one."""
    words = {PermWord(slots, ()).permutation(): ()}
    frontier = [()]
    while frontier:
        grown = []
        for w in frontier:
            for a in range(1, slots):
                perm = PermWord(slots, w + (a,)).permutation()
                if perm not in words:
                    words[perm] = w + (a,)
                    grown.append(w + (a,))
        frontier = grown
    return list(words.values())


def test_move_matches_the_extended_pair_route_on_four_and_five_slots():
    # suite_rmatrix covers at most three slots
    for d in compositions(6):
        if len(d) not in (4, 5):
            continue
        words = _one_reduced_word_per_permutation(len(d))
        assert len(words) == (24 if len(d) == 4 else 120)
        for sign in ("plus", "minus"):
            # breadth first, so each word's prefix is built before it
            refs = {}
            for word in words:
                refs[word] = _reference_r_move(d, word, sign, refs.get(word[:-1]))
                assert r_move(d, word, sign) == refs[word], (d, word, sign)
            assert _reference_r_move(d, words[-1], sign) == refs[words[-1]]


def test_move_empty_word_is_identity():
    m = r_move((2, 1), [])
    assert m.target == (2, 1)
    assert m.columns == LinMap.identity((2, 1)).columns


def test_move_minus_inverts_plus():
    d = (1, 1, 1)
    word = [1, 2, 1]
    p = r_move(d, word)
    n = r_move(p.target, list(reversed(word)), sign="minus")
    assert n.compose(p).columns == LinMap.identity(d).columns


def test_move_intertwines_on_longer_words():
    d = (1, 1, 1)
    m = r_move(d, [1, 2, 1])
    for r in range(4):
        for idx in enumerate_basis(d, r):
            u = V(d, idx)
            assert m.apply(act_E(u)) == act_E(m.apply(u))
            assert m.apply(act_F(u)) == act_F(m.apply(u))


# -- matrix extraction -------------------------------------------------------------


def test_matrix_in_basis_accepts_linmap():
    mats = matrix_in_basis(LinMap.identity((1, 1)), "standard")
    assert mats[1] == [[ONE, ZERO], [ZERO, ONE]]
    mats = matrix_in_basis(LinMap.identity((1, 1)), "canonical")
    assert mats[1] == [[ONE, ZERO], [ZERO, ONE]]


def test_matrix_in_basis_refuses_a_map_that_does_not_preserve_weight():
    # the level swap v0 <-> v1 on Lambda_(1), and Lambda_(1) -> Lambda_(2)
    # dropping the target's level 2
    swap = LinMap((1,), (1,), {(0,): V((1,), (1,)), (1,): V((1,), (0,))})
    grow = LinMap((1,), (2,), {(0,): V((2,), (0,)), (1,): V((2,), (1,))})
    for basis in ("standard", "canonical"):
        with pytest.raises(ValueError, match=re.escape("sends (0,) off level 0")):
            matrix_in_basis(swap, basis)
        with pytest.raises(ValueError, match="changes the total weight"):
            matrix_in_basis(grow, basis)


def test_matrix_in_basis_rejects_unknown_basis():
    with pytest.raises(ValueError):
        matrix_in_basis(r_plus_pair(1, 1), "spectral")


# -- fault injection ----------------------------------------------------------------


def test_step_builder_with_its_defaults_is_r_plus_columns():
    # the fault injections below change one thing of this builder
    for d1 in range(4):
        for d2 in range(4):
            assert r_plus_columns(d1, d2) == _r_plus_columns(d1, d2), (d1, d2)


def test_dropping_scalar_leaks_half_powers():
    cols = r_plus_columns(1, 1, with_scalar=False)
    leaks = [
        c
        for image in cols.values()
        for _, c in image.items()
        if not c.is_in_a()
    ]
    assert leaks
    assert Laurent({1: 1}) in leaks


def test_misordered_steps_differ_without_leaking():
    good = _r_plus_columns(1, 2)
    bad = r_plus_columns(1, 2, step_order=("cartan", "theta", "swap"))
    assert bad != good
    for image in bad.values():
        for _, c in image.items():
            assert c.is_in_a()


def test_misordered_steps_break_intertwining():
    cols = r_plus_columns(1, 2, step_order=("cartan", "theta", "swap"))
    m = LinMap((1, 2), (2, 1), cols)
    broken = 0
    for r in range(4):
        for idx in enumerate_basis((1, 2), r):
            u = V((1, 2), idx)
            if m.apply(act_E(u)) != act_E(m.apply(u)):
                broken += 1
    assert broken > 0
