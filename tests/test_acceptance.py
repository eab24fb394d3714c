"""Acceptance battery: one test per shipped guarantee, each printing a
pass/fail line and enforcing its runtime budget.  Every comparison is
exact; the arithmetic has no tolerance to hide behind."""

import contextlib
import io
import os
import time

from qsl2 import (
    Laurent,
    ModuleVector,
    bar_involution,
    canonical_basis,
    compute_quasi_r,
    embed_refine,
    inner_product,
    lift_word,
    matrix_in_basis,
    r_minus_pair,
    r_move,
    r_plus_pair,
    split_expand,
)
from qsl2.cli import main
from qsl2.modules import (
    LinMap,
    act_divided,
    act_E,
    act_F,
    act_K,
    enumerate_basis,
)
from qsl2.orbits import closure_leq
from qsl2.qring import (
    ONE,
    Q,
    QINV,
    ZERO,
    exact_div,
    q_power,
    quantum_binomial,
    quantum_factorial,
)
from qsl2.rmatrix import _r_plus_columns

from conftest import r_plus_columns, solved_under
from test_canonical import _reference_table
from qsl2.verify import compositions

V = ModuleVector.basis
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


def _criterion(n: int, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    if elapsed >= budget:
        print(f"criterion {n}: FAIL (runtime {elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(
            f"criterion {n} exceeded its {budget}s budget: {elapsed:.2f}s"
        )
    print(f"criterion {n}: PASS ({elapsed:.2f}s)")


def _minus_q2_power(e: int) -> Laurent:
    return Laurent({4 * e: (-1) ** e})


def test_criterion_01_canonical_ground_truth():
    def body():
        out = _cli(["canon", "--d", "2,2", "--r", "2"])
        assert out == _golden("canon_d2-2_r2.txt")
        t = canonical_basis((2, 2), 2)
        d = (2, 2)
        assert t.rows[(2, 0)] == V(d, (2, 0))
        assert t.rows[(1, 1)] == V(d, (1, 1)) + V(d, (2, 0)).scale(
            Laurent({-2: 1, -6: 1})
        )
        assert t.rows[(0, 2)] == (
            V(d, (0, 2))
            + V(d, (1, 1)).scale(QINV)
            + V(d, (2, 0)).scale(q_power(-4))
        )

    _criterion(1, 1.0, body)


def test_criterion_02_split_ground_truth():
    def body():
        out = _cli(["split", "--d", "1,1,1", "--at", "1", "--r", "1"])
        assert out == _golden("split_d1-1-1_at1_r1.txt")
        s = split_expand((1, 1, 1), 1, 1)
        assert s.rows[(1, 0, 0)] == {(1, 0, 0): ONE}
        assert s.rows[(0, 1, 0)] == {(0, 1, 0): ONE, (1, 0, 0): QINV}
        assert s.rows[(0, 0, 1)] == {(0, 0, 1): ONE, (1, 0, 0): q_power(-2)}

    _criterion(2, 1.0, body)


def test_criterion_03_braiding_ground_truth():
    def body():
        out = _cli(
            ["rmat", "--d", "1,1", "--word", "1", "--sign", "plus",
             "--basis", "canonical"]
        )
        assert out == _golden("rmat_d1-1_w1_plus_can.txt")
        out = _cli(
            ["rmat", "--d", "1,1", "--word", "1", "--sign", "minus",
             "--basis", "canonical"]
        )
        assert out == _golden("rmat_d1-1_w1_minus_can.txt")

        plus = matrix_in_basis(r_plus_pair(1, 1), "canonical")
        assert plus[0] == [[Laurent({4: -1})]]
        assert plus[1] == [[ONE, ZERO], [Laurent({2: -1}), Laurent({4: -1})]]
        assert plus[2] == [[Laurent({4: -1})]]
        minus = matrix_in_basis(r_minus_pair(1, 1), "canonical")
        assert minus[0] == [[Laurent({-4: -1})]]
        assert minus[1] == [[ONE, ZERO], [Laurent({-2: -1}), Laurent({-4: -1})]]
        assert minus[2] == [[Laurent({-4: -1})]]

    _criterion(3, 1.0, body)


def test_criterion_04_highest_weight_scaling():
    def body():
        for d1 in range(1, 4):
            for d2 in range(1, 4):
                m = r_plus_pair(d1, d2)
                scalar = _minus_q2_power(d1 * d2)
                assert m.apply(V((d1, d2), (0, 0))) == V(
                    (d2, d1), (0, 0)
                ).scale(scalar)

    _criterion(4, 5.0, body)


def test_criterion_05_inner_product_formula():
    def body():
        for d in range(9):
            for r in range(d + 1):
                u = V((d,), (r,))
                expected = quantum_binomial(d, r) * q_power(-r * (d - r))
                assert inner_product(u, u) == expected

    _criterion(5, 5.0, body)


def test_criterion_06_positivity_suite():
    def body():
        for d in compositions(6):
            for r in range(sum(d) + 1):
                table = canonical_basis(d, r)
                for idx in table.order:
                    for s, c in table.rows[idx].items():
                        if s != idx:
                            assert c.is_in_qinv_z_nonneg(), (d, r, idx, s, c)
                for i in table.order:
                    for j in table.order:
                        val = inner_product(table.rows[i], table.rows[j])
                        if i == j:
                            val = val - ONE
                        assert val.is_in_qinv_z_nonneg(), (d, r, i, j, val)
                for cut in range(1, len(d)):
                    st = split_expand(d, cut, r)
                    for idx in st.order:
                        for s, c in st.rows[idx].items():
                            if s == idx:
                                assert c == ONE
                            else:
                                assert closure_leq(d, s, idx), (d, cut, idx, s)
                                assert c.is_in_qinv_z_nonneg(), (d, cut, idx, s, c)

    _criterion(6, 60.0, body)


def test_criterion_07_algebra_relations():
    def body():
        denom = Q - QINV
        for d in compositions(6):
            total = sum(d)
            for r in range(total + 1):
                for idx in enumerate_basis(d, r):
                    u = V(d, idx)
                    assert act_K(act_E(u)) == act_E(act_K(u)).scale(q_power(2))
                    assert act_K(act_F(u)) == act_F(act_K(u)).scale(q_power(-2))
                    w = total - 2 * r
                    lhs = act_E(act_F(u)) - act_F(act_E(u))
                    rhs = u.scale(exact_div(q_power(w) - q_power(-w), denom))
                    assert lhs == rhs
            for idx in enumerate_basis(d, 0):
                base = V(d, idx)
                power = base
                for n in range(1, total + 1):
                    power = act_F(power)
                    divided = act_divided(base, "F", n)
                    assert power == divided.scale(quantum_factorial(n))
                    for _, c in power.items():
                        exact_div(c, quantum_factorial(n))
            for idx in enumerate_basis(d, total):
                base = V(d, idx)
                power = base
                for n in range(1, total + 1):
                    power = act_E(power)
                    divided = act_divided(base, "E", n)
                    assert power == divided.scale(quantum_factorial(n))
                    for _, c in power.items():
                        exact_div(c, quantum_factorial(n))

    _criterion(7, 30.0, body)


def test_criterion_08_bar_involution_axioms():
    def body():
        import random

        rng = random.Random(90125)
        for d in compositions(6):
            for r in range(sum(d) + 1):
                for idx in enumerate_basis(d, r):
                    u = V(d, idx)
                    image = bar_involution(u)
                    assert bar_involution(image) == u
                    assert image.coeff(idx) == ONE
                    for s, _ in image.items():
                        assert closure_leq(d, s, idx), (d, idx, s)
                    assert bar_involution(act_K(u)) == act_K(
                        bar_involution(u), -1
                    )
                    assert bar_involution(act_E(u)) == act_E(bar_involution(u))
                    assert bar_involution(act_F(u)) == act_F(bar_involution(u))
            basis = enumerate_basis(d, min(1, sum(d)))
            u = ModuleVector.zero(d)
            for idx in basis:
                u = u + V(d, idx).scale(
                    Laurent({2 * rng.randrange(-3, 4): rng.randrange(-4, 5)})
                )
            p = Laurent({2 * rng.randrange(-2, 3): 3, 0: rng.randrange(1, 4)})
            assert bar_involution(u.scale(p)) == bar_involution(u).scale(p.bar())
        for d in compositions(6):
            if len(d) != 3:
                continue
            for r in range(sum(d) + 1):
                for idx in enumerate_basis(d, r):
                    u = V(d, idx)
                    assert bar_involution(u, cut=1) == bar_involution(u, cut=2)

    _criterion(8, 30.0, body)


def test_criterion_09_braiding_suite():
    def body():
        tested: list = []
        for d in [(1, 1, 1), (1, 2, 1), (2, 1, 1)]:
            a = r_move(d, [1, 2, 1])
            b = r_move(d, [2, 1, 2])
            assert a.target == b.target
            assert a.columns == b.columns
            tested.append(a)
        for d1 in range(1, 4):
            for d2 in range(1, 4):
                p = r_plus_pair(d1, d2)
                n = r_minus_pair(d2, d1)
                assert (
                    n.compose(p).columns
                    == LinMap.identity((d1, d2)).columns
                )
                assert (
                    p.compose(n).columns
                    == LinMap.identity((d2, d1)).columns
                )
                tested.append(p)
        for move in tested:
            d = move.source
            for r in range(sum(d) + 1):
                for idx in enumerate_basis(d, r):
                    u = V(d, idx)
                    assert move.apply(act_K(u)) == act_K(move.apply(u))
                    assert move.apply(act_E(u)) == act_E(move.apply(u))
                    assert move.apply(act_F(u)) == act_F(move.apply(u))

    _criterion(9, 60.0, body)


def test_criterion_10_refinement_compatibility():
    def body():
        for d in [(2,), (2, 1), (1, 2), (2, 2), (3, 1)]:
            phi = embed_refine(d)
            for r in range(sum(d) + 1):
                idxs = enumerate_basis(d, r)
                for idx in idxs:
                    u = V(d, idx)
                    assert phi.apply(act_K(u)) == act_K(phi.apply(u))
                    assert phi.apply(act_E(u)) == act_E(phi.apply(u))
                    assert phi.apply(act_F(u)) == act_F(phi.apply(u))
                    for jdx in idxs:
                        w = V(d, jdx)
                        assert inner_product(u, w) == inner_product(
                            phi.apply(u), phi.apply(w)
                        )
        for d in [(2, 1), (2, 2)]:
            fine = tuple(1 for _ in range(sum(d)))
            phi_src = embed_refine(d)
            for sign in ("plus", "minus"):
                coarse = r_move(d, [1], sign=sign)
                phi_dst = embed_refine(coarse.target)
                lifted = r_move(fine, lift_word(d, [1]), sign=sign)
                left = phi_dst.compose(coarse)
                right = lifted.compose(phi_src)
                assert left.columns == right.columns

    _criterion(10, 30.0, body)


def test_criterion_11_mutation_sensitivity():
    def body():
        # negated kappa_1: the Theta route's (2,2) table leaves ground
        # truth and loses positivity, so criteria 1 and 6 would fail; the
        # solve reads no kappa and keeps the true table, which the faulty
        # Psi no longer fixes
        ks = compute_quasi_r(2)
        flipped = [ks[0], Laurent({h: -c for h, c in ks[1].items()}), ks[2]]
        true_table = canonical_basis((2, 2), 2)
        row = true_table.rows[(1, 1)]
        with solved_under(flipped):
            wrong = _reference_table((2, 2), 2)
            assert canonical_basis((2, 2), 2) == true_table
            assert bar_involution(row) != row
        assert wrong != true_table
        bad_coeff = wrong.rows[(1, 1)].coeff((2, 0))
        assert bad_coeff == Laurent({-2: -1, -6: -1})
        assert not bad_coeff.is_in_qinv_z_nonneg()

        # permuted composition order: braiding columns change and the
        # E-intertwining of criterion 9 breaks on (1,2)
        bad_cols = r_plus_columns(1, 2, step_order=("cartan", "theta", "swap"))
        assert bad_cols != _r_plus_columns(1, 2)
        bad_map = LinMap((1, 2), (2, 1), bad_cols)
        broken = 0
        for r in range(4):
            for idx in enumerate_basis((1, 2), r):
                u = V((1, 2), idx)
                if bad_map.apply(act_E(u)) != act_E(bad_map.apply(u)):
                    broken += 1
        assert broken > 0

        # dropped scalar: half powers leak into the (1,1) entries and
        # the highest-weight scaling of criterion 4 is wrong
        bare = r_plus_columns(1, 1, with_scalar=False)
        leaks = [
            c
            for image in bare.values()
            for _, c in image.items()
            if not c.is_in_a()
        ]
        assert leaks
        bare_map = LinMap((1, 1), (1, 1), bare)
        expected = V((1, 1), (0, 0)).scale(_minus_q2_power(1))
        assert bare_map.apply(V((1, 1), (0, 0))) != expected

    _criterion(11, 10.0, body)
