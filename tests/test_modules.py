"""Module vectors, the tensor action through the comultiplication,
divided powers, the bilinear form, and exact column maps."""

import math
import random

import pytest

import qsl2.canonical as canonical_mod
import qsl2.modules as modules_mod
import qsl2.rmatrix as rmatrix_mod
from qsl2 import clear_caches, compositions, compute_quasi_r
from qsl2.errors import (
    AmbientMismatchError,
    IntegralityViolationError,
    NonDivisibleError,
)
from qsl2.modules import (
    LinMap,
    ModuleVector,
    act_divided,
    act_E,
    act_F,
    act_K,
    combine,
    enumerate_basis,
    format_index,
    gram_entry,
    inner_product,
    rho_twist,
    tensor,
    theta,
)
from qsl2.qring import (
    Laurent,
    ONE,
    Q,
    QINV,
    ZERO,
    exact_div,
    q_half,
    q_power,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)
from qsl2.verify import SUITES


def v(d, *idx):
    return ModuleVector.basis(tuple(d), tuple(idx))


def test_vector_basics():
    u = v((2, 2), 1, 1)
    assert u.d == (2, 2)
    assert u.coeff((1, 1)) == ONE
    assert u.coeff((2, 0)) == ZERO
    assert u.support() == {(1, 1)}
    assert not u.is_zero()
    assert ModuleVector.zero((2, 2)).is_zero()
    with pytest.raises(ValueError):
        ModuleVector.basis((2, 2), (3, 0))
    with pytest.raises(AmbientMismatchError):
        v((2, 2), 1, 1) + v((2, 1), 1, 1)


def test_unordered_items_are_the_items_in_storage_order():
    u = v((2, 2), 2, 2) + v((2, 2), 0, 1).scale(Q) + v((2, 2), 1, 0)
    assert list(u.unordered_items()) == [((2, 2), ONE), ((0, 1), Q), ((1, 0), ONE)]
    order = [idx for r in range(5) for idx in enumerate_basis((2, 2), r)]
    assert sorted(u.unordered_items(), key=lambda kv: order.index(kv[0])) == u.items()
    assert list(u.unordered_items()) != u.items()


def test_vector_arithmetic_and_levels():
    a = v((2, 2), 1, 1).scale(Q) + v((2, 2), 2, 0).scale(3)
    assert a.coeff((1, 1)) == Q
    assert a.coeff((2, 0)) == Laurent({0: 3})
    assert (a - a).is_zero()
    assert (-a) + a == ModuleVector.zero((2, 2))
    assert a.levels() == {2}
    b = a + v((2, 2), 0, 0)
    assert b.levels() == {0, 2}
    assert a.scale(ZERO).is_zero()


def test_enumerate_basis_matches_linear_extension():
    assert enumerate_basis((2, 2), 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_basis((3,), 1) == [(1,)]
    assert enumerate_basis((3,), 5) == []


def test_single_factor_action():
    # K v_r = q^(d - 2r) v_r on the (d+1)-dimensional module
    assert act_K(v((3,), 2)) == v((3,), 2).scale(q_power(-1))
    assert act_K(v((3,), 2), -1) == v((3,), 2).scale(q_power(1))
    with pytest.raises(ValueError):
        act_K(v((3,), 2), 2)
    # E v_r = [d - r + 1] v_(r-1), F v_r = [r + 1] v_(r+1)
    assert act_E(v((3,), 2)) == v((3,), 1).scale(quantum_integer(2))
    assert act_E(v((3,), 0)).is_zero()
    assert act_F(v((3,), 1)) == v((3,), 2).scale(quantum_integer(2))
    assert act_F(v((3,), 3)).is_zero()


def test_tensor_action():
    # E carries a K weight past the factors to its left
    assert act_E(v((1, 1), 1, 1)) == v((1, 1), 0, 1) + v(
        (1, 1), 1, 0
    ).scale(QINV)
    # F carries an inverse K weight past the factors to its right
    assert act_F(v((1, 1), 0, 0)) == v((1, 1), 0, 1) + v(
        (1, 1), 1, 0
    ).scale(QINV)
    assert act_K(v((2, 3), 1, 1)) == v((2, 3), 1, 1).scale(q_power(1))


def test_tensor_of_vectors():
    a = v((2,), 1).scale(Q)
    b = v((3,), 0) + v((3,), 2).scale(-1)
    t = tensor(a, b)
    assert t.d == (2, 3)
    assert t.coeff((1, 0)) == Q
    assert t.coeff((1, 2)) == -Q
    assert len(t.support()) == 2


def test_divided_powers():
    for d in range(5):
        for r in range(d + 1):
            assert act_divided(v((d,), 0), "F", r) == v((d,), r)
    assert act_divided(v((1, 1), 0, 0), "F", 2) == v((1, 1), 1, 1)
    assert act_divided(v((2, 2), 0, 0), "F", 4) == v((2, 2), 2, 2)
    assert act_divided(v((2,), 0), "F", 3).is_zero()
    assert act_divided(v((2,), 0), "E", 0) == v((2,), 0)
    with pytest.raises(ValueError):
        act_divided(v((2,), 0), "G", 1)
    with pytest.raises(ValueError):
        act_divided(v((2,), 0), "F", -1)


def test_divided_power_composition_identity():
    for d in [(3,), (1, 2)]:
        for r in range(sum(d) + 1):
            for idx in enumerate_basis(d, r):
                u = ModuleVector.basis(d, idx)
                for gen in ("E", "F"):
                    for n in range(3):
                        for m in range(3):
                            lhs = act_divided(act_divided(u, gen, m), gen, n)
                            rhs = act_divided(u, gen, n + m).scale(
                                quantum_binomial(n + m, n)
                            )
                            assert lhs == rhs


def test_algebra_relations():
    qm = Q - QINV
    for d in [(4,), (2, 1), (1, 1, 2)]:
        total = sum(d)
        for r in range(total + 1):
            for idx in enumerate_basis(d, r):
                u = ModuleVector.basis(d, idx)
                assert act_K(act_E(u)) == act_E(act_K(u)).scale(q_power(2))
                assert act_K(act_F(u)) == act_F(act_K(u)).scale(q_power(-2))
                w = total - 2 * r
                scalar = (
                    exact_div(q_power(w) - q_power(-w), qm) if w else ZERO
                )
                assert act_E(act_F(u)) - act_F(act_E(u)) == u.scale(scalar)


def test_gram_entries():
    assert gram_entry((2,), (0,)) == ONE
    assert gram_entry((2,), (1,)) == ONE + q_power(-2)
    assert gram_entry((4,), (2,)) == Laurent(
        {0: 1, -4: 1, -8: 2, -12: 1, -16: 1}
    )
    assert gram_entry((2, 2), (1, 1)) == (ONE + q_power(-2)) ** 2


def test_inner_product():
    a, b = v((2, 2), 1, 1), v((2, 2), 2, 0)
    assert inner_product(a, b) == ZERO
    assert inner_product(a, a) == gram_entry((2, 2), (1, 1))
    assert inner_product(a + b, a) == gram_entry((2, 2), (1, 1))
    assert inner_product(a.scale(Q), b + a) == gram_entry(
        (2, 2), (1, 1)
    ) * Q
    assert inner_product(a, b) == inner_product(b, a)
    with pytest.raises(AmbientMismatchError):
        inner_product(a, v((2, 1), 1, 1))


def test_adjointness_example():
    # (E v_1, v_0) = (v_1, rho(E) v_0) on the three-dimensional module;
    # the common value is [2] = q + q^-1
    lhs = inner_product(act_E(v((2,), 1)), v((2,), 0))
    rhs = inner_product(v((2,), 1), rho_twist("E")(v((2,), 0)))
    assert lhs == rhs == Q + QINV


def test_adjointness_sweep():
    rng = random.Random(5)
    for d in [(3,), (2, 1), (1, 1, 1)]:
        total = sum(d)
        for x, op, shift in (
            ("K", act_K, 0),
            ("E", act_E, -1),
            ("F", act_F, 1),
        ):
            rho = rho_twist(x)
            for r in range(total + 1):
                if not 0 <= r + shift <= total:
                    continue
                for idx in enumerate_basis(d, r):
                    for jdx in enumerate_basis(d, r + shift):
                        u = ModuleVector.basis(d, idx)
                        w = ModuleVector.basis(d, jdx)
                        assert inner_product(op(u), w) == inner_product(
                            u, rho(w)
                        )
    with pytest.raises(ValueError):
        rho_twist("X")


def test_zero_part_compositions_act_trivially_on_zero_slots():
    u = v((2, 0), 1, 0)
    assert act_F(u) == v((2, 0), 2, 0).scale(quantum_integer(2))
    assert act_E(v((0, 3), 0, 1)) == v((0, 3), 0, 0).scale(
        quantum_integer(3)
    )
    w = v((1, 0, 1), 0, 0, 0)
    img = act_F(w)
    assert img == v((1, 0, 1), 0, 0, 1) + v((1, 0, 1), 1, 0, 0).scale(QINV)
    assert gram_entry((0,), (0,)) == ONE


def test_dimension_count():
    for d in [(2, 2), (1, 2, 1), (3,)]:
        dim = sum(len(enumerate_basis(d, r)) for r in range(sum(d) + 1))
        assert dim == math.prod(dk + 1 for dk in d)


def test_linmap():
    ident = LinMap.identity((1, 1))
    u = v((1, 1), 0, 1).scale(Q)
    assert ident.apply(u) == u
    e_map = LinMap(
        (1, 1),
        (1, 1),
        {
            idx: act_E(ModuleVector.basis((1, 1), idx))
            for r in range(3)
            for idx in enumerate_basis((1, 1), r)
        },
    )
    assert e_map.apply(v((1, 1), 1, 1)) == act_E(v((1, 1), 1, 1))
    composed = e_map.compose(e_map)
    assert composed.apply(v((1, 1), 1, 1)) == act_E(
        act_E(v((1, 1), 1, 1))
    )
    with pytest.raises(AmbientMismatchError):
        ident.apply(v((2,), 1))
    with pytest.raises(AmbientMismatchError):
        ident.compose(LinMap.identity((2, 1)))


def test_linmap_refuses_a_column_off_its_target():
    cols = dict(LinMap.identity((1, 1)).columns)
    cols[(1, 0)] = v((2,), 1)
    named = r"column \(1,0\) lies over \(2,\), not the target \(1, 1\)"
    with pytest.raises(AmbientMismatchError, match=named):
        LinMap((1, 1), (1, 1), cols)


def test_linmap_refuses_a_missing_column():
    cols = dict(LinMap.identity((1, 1)).columns)
    del cols[(0, 1)]
    named = r"no column for the basis index \(0,1\) of \(1, 1\)"
    with pytest.raises(AmbientMismatchError, match=named):
        LinMap((1, 1), (1, 1), cols)


def test_linmap_refuses_a_column_key_off_its_source():
    v0 = v((1,), 0)
    named = r"column key \(5,\) is not a standard basis index of \(1,\)"
    with pytest.raises(AmbientMismatchError, match=named):
        LinMap((1,), (1,), {(5,): v0})
    # a key off the module is named even beside a full column set
    cols = {**LinMap.identity((1,)).columns, (0, 1): v0}
    with pytest.raises(AmbientMismatchError, match=r"column key \(0, 1\) is not"):
        LinMap((1,), (1,), cols)


def _swap_slots(u):
    """A vector over (d1, d2) read over (d2, d1), each index reversed."""
    return ModuleVector(u.d[::-1], {idx[::-1]: c for idx, c in u.items()})


def test_linmap_of_takes_its_target_from_the_level_0_column():
    swap = LinMap.of((1, 2), _swap_slots)
    assert swap.source == (1, 2)
    assert swap.target == (2, 1)
    assert swap.apply(v((1, 2), 1, 2)) == v((2, 1), 2, 1)
    # every column but the top one swapped: two compositions among the columns
    split = lambda u: u if u.support() == {(1, 2)} else _swap_slots(u)
    named = r"column \(1,2\) lies over \(1, 2\), not the target \(2, 1\)"
    with pytest.raises(AmbientMismatchError, match=named):
        LinMap.of((1, 2), split)


def test_linmap_apply_of_a_unit_basis_vector_is_its_column():
    e_map = LinMap.of((2, 1), act_E)
    u = v((2, 1), 1, 1)
    assert e_map.apply(u) is e_map.columns[(1, 1)]
    assert e_map.apply(u.scale(Q)) == e_map.columns[(1, 1)].scale(Q)
    assert e_map.apply(ModuleVector.zero((2, 1))) == ModuleVector.zero((2, 1))
    with pytest.raises(AmbientMismatchError):
        e_map.apply(v((1, 2), 1, 1))


def test_linmap_of_an_operator_applies_as_the_operator():
    # the verify suites check the module relations on these maps, column
    # by column, which stands for the operator only if apply is linear
    rng = random.Random(3303)
    ops = {
        "K": act_K,
        "K^-1": lambda u: act_K(u, -1),
        "E": act_E,
        "F": act_F,
        "E^(2)": lambda u: act_divided(u, "E", 2),
        "F^(2)": lambda u: act_divided(u, "F", 2),
    }
    for d in compositions(5):
        maps = {name: LinMap.of(d, op) for name, op in ops.items()}
        for level in range(sum(d) + 1):
            for _ in range(3):
                u = _random_vector(rng, d, level)
                for name, op in ops.items():
                    assert maps[name].apply(u) == op(u), (name, u)


def test_serialization_roundtrip():
    u = v((2, 2), 1, 1).scale(Laurent({-2: 1, -6: 1})) + v((2, 2), 2, 0)
    obj = u.to_json_obj()
    assert obj == {
        "d": [2, 2],
        "terms": [
            {"r": [2, 0], "coeff": [[0, "1"]]},
            {"r": [1, 1], "coeff": [[-6, "1"], [-2, "1"]]},
        ],
    }
    assert ModuleVector.zero((3,)).to_json_obj() == {"d": [3], "terms": []}


def test_scale_refuses_a_bool():
    u = v((2, 1), 1, 0)
    assert u.scale(1) is u and u.scale(Laurent({0: 1})) is u
    assert u.scale(0) == ModuleVector.zero((2, 1))
    assert u.scale(-1) == -u
    for flag in (True, False):
        with pytest.raises(TypeError):
            u.scale(flag)


def test_act_k_refuses_a_bool():
    # act_K(v, True) once acted as K, a bool read as the sign +1
    u = v((1,), 0)
    for flag in (True, False):
        with pytest.raises(ValueError, match=r"sign must be \+1 or -1"):
            act_K(u, flag)
    assert act_K(u, 1) == u.scale(Q) and act_K(u, -1) == u.scale(QINV)


def test_act_divided_refuses_a_bool_or_a_float():
    # act_divided(v, "E", True) once acted as E, and 1.0 escaped as a
    # TypeError from range
    u = v((2,), 2)
    for n in (True, False, 1.0):
        with pytest.raises(ValueError, match="divided power needs n >= 0"):
            act_divided(u, "E", n)
    assert act_divided(u, "E", 1) == act_E(u) and act_divided(u, "E", 0) == u


def test_rendering():
    assert format_index((2, 0)) == "(2,0)"
    assert str(v((2, 2), 1, 1)) == "v(1,1)"
    assert str(ModuleVector.zero((2, 2))) == "0"
    shown = str(v((2, 2), 0, 2) + v((2, 2), 1, 1).scale(QINV))
    assert shown == "v(0,2) + q^-1 v(1,1)"
    multi = str(v((2, 2), 1, 1) + v((2, 2), 2, 0).scale(QINV + q_power(-3)))
    assert multi == "v(1,1) + (q^-1 + q^-3) v(2,0)"
    negative = str(v((1, 1), 0, 1) - v((1, 1), 1, 0).scale(Q))
    assert negative == "v(0,1) - q v(1,0)"


def _reference_render_terms(terms):
    """render_terms as it was written first: each monomial rebuilt as a
    Laurent with its sign dropped and compared against 1."""
    chunks = []
    for c, label in terms:
        pairs = list(c.items())
        if len(pairs) == 1:
            h, n = pairs[0]
            negative = n < 0
            mono = Laurent({h: abs(n)})
            body = "" if mono == ONE else f"{mono} "
        else:
            negative = False
            body = f"({c}) "
        term = f"{body}{label}"
        if not chunks:
            chunks.append(f"-{term}" if negative else term)
        else:
            chunks.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(chunks)


def test_render_terms_matches_the_reference_on_every_kind_of_coefficient():
    coeffs = [ZERO, ONE, -ONE, Q, -QINV, Laurent({1: 1}), Laurent({-3: -1})]
    coeffs += [Laurent({h: n}) for h in (-4, -1, 0, 3, 6) for n in (-12, -2, 2, 7)]
    coeffs += [QINV + q_power(-3), Q - QINV, Laurent({0: -2, 5: 3}), ONE + ONE]
    texts = {}
    for c in coeffs + coeffs:
        for lead in ([], [(QINV, "v(0)")]):
            terms = lead + [(c, "v(1)")]
            assert modules_mod.render_terms(terms) == _reference_render_terms(terms)
            # one texts dict shared across calls formats the same text
            assert modules_mod.render_terms(terms, texts) == _reference_render_terms(terms)


# -- trusted kernels against reference loops -----------------------------------


def _reference_inner_product(u, w):
    """The bilinear form as a plain loop over gram_entry and Laurent adds."""
    out = ZERO
    for idx, c in u.items():
        out = out + c * w.coeff(idx) * gram_entry(u.d, idx)
    return out


def _random_vector(rng, d, level):
    out = ModuleVector.zero(d)
    for idx in enumerate_basis(d, level):
        if rng.random() < 0.6:
            c = Laurent(
                {rng.randrange(-8, 9): rng.randrange(-9, 10) for _ in range(3)}
            )
            out = out + ModuleVector.basis(d, idx).scale(c)
    return out


def _reference_combine(d, pairs):
    """sum c u as the loop combine replaced: one vector add per pair."""
    out = ModuleVector.zero(d)
    for c, u in pairs:
        out = out + u.scale(c)
    return out


def _coefficient_draws(rng):
    """Coefficients for the kernel comparisons: a fresh 1 (a new
    instance, not ONE), ONE itself, -1, 0, monomials and polynomials."""
    return [
        Laurent({0: 1}),
        ONE,
        Laurent({0: -1}),
        Laurent({}),
        Q,
        QINV,
        q_half(3),
        Laurent({-4: -2}),
        Laurent({rng.randrange(-6, 7): rng.choice([-3, -1, 2, 5])}),
        Q - QINV,
        Laurent({rng.randrange(-6, 7): rng.randrange(-3, 4) for _ in range(3)}),
    ]


def _drawn_vector(rng, d, level, draws):
    """A vector whose every coefficient on the level is drawn from draws
    (a zero draw leaves the index out)."""
    return ModuleVector(d, {idx: rng.choice(draws) for idx in enumerate_basis(d, level)})


def test_combine_matches_reference_loop():
    rng = random.Random(2718)
    for d in [(1,), (2, 1), (1, 2, 1), (1, 1, 1, 1)]:
        for level in range(sum(d) + 1):
            pool = [_random_vector(rng, d, level) for _ in range(4)]
            for k in range(6):
                pairs = [
                    (
                        Laurent({rng.randrange(-4, 5): rng.randrange(-3, 4)}),
                        rng.choice(pool),
                    )
                    for _ in range(k)
                ]
                assert combine(d, pairs) == _reference_combine(d, pairs)
            u = pool[0] + ModuleVector.basis(d, enumerate_basis(d, level)[0])
            # u - q u + (q - 1) u cancels to zero
            pairs = [(ONE, u), (-Q, u), (Q - ONE, u)]
            assert combine(d, pairs).is_zero()
            assert combine(d, pairs)._terms == {}
            assert _reference_combine(d, pairs).is_zero()
            draws = _coefficient_draws(rng)
            pool += [_drawn_vector(rng, d, level, draws) for _ in range(2)]
            for c in draws:
                for w in pool:
                    assert combine(d, [(c, w)]) == _reference_combine(d, [(c, w)])
            for k in range(2, 6):
                pairs = [(rng.choice(draws), rng.choice(pool)) for _ in range(k)]
                assert combine(d, pairs) == _reference_combine(d, pairs)
    assert combine((2, 1), []) == ModuleVector.zero((2, 1))
    with pytest.raises(AmbientMismatchError):
        combine((2, 1), [(ONE, v((1, 2), 0, 0))])


def _reference_accumulate(data, idx, c, x):
    """c * x added to data[idx] as the package once summed it: one
    Laurent product and one Laurent sum per summand, a factor 1
    multiplying nothing, and an entry that cancels deleted."""
    if c._terms == ONE._terms:
        value = x
    elif x._terms == ONE._terms:
        value = c
    else:
        value = c * x
    prev = data.get(idx)
    if prev is None:
        if value._terms:
            data[idx] = value
        return
    total = prev + value
    if total._terms:
        data[idx] = total
    else:
        del data[idx]


def test_accumulate_matches_reference_loop_without_aliasing():
    rng = random.Random(5150)
    coeffs = [ZERO, ONE, -ONE, Q, QINV, Laurent({1: 1}), Laurent({-3: -2})]
    coeffs += [Laurent({rng.randrange(-9, 10): rng.choice([-3, -1, 1, 2])}) for _ in range(6)]
    coeffs += [
        Laurent({rng.randrange(-7, 8): rng.randrange(-3, 4) for _ in range(rng.randrange(0, 5))})
        for _ in range(6)
    ]
    indices = [(i,) for i in range(5)]
    for trial in range(200):
        rows = [
            {w: rng.choice(coeffs[1:]) for w in rng.sample(indices, rng.randrange(1, 5))}
            for _ in range(4)
        ]
        before = [{w: dict(e._terms) for w, e in row.items()} for row in rows]
        acc, ref = {}, {}
        for _ in range(rng.randrange(1, 7)):
            c, row, head = rng.choice(coeffs), rng.choice(rows), rng.choice([(), (7,)])
            for w, e in row.items():
                modules_mod._accumulate(acc, head + w, c, e)
            # the general loop on plain int maps
            for w, e in row.items():
                raw = ref.setdefault(head + w, {})
                for h1, c1 in c.items():
                    for h2, c2 in e.items():
                        raw[h1 + h2] = raw.get(h1 + h2, 0) + c1 * c2
        expected = {key: {h: x for h, x in raw.items() if x} for key, raw in ref.items()}
        expected = {key: terms for key, terms in expected.items() if terms}
        # every entry reads as its sum before the finish
        for key, value in acc.items():
            assert modules_mod._value(value)._terms == expected.get(key, {}), (trial, key)
        # the finish works in place and keeps the nonzero entries only
        assert modules_mod._finish(acc) is acc
        assert all(type(value) is Laurent for value in acc.values())
        assert {key: value._terms for key, value in acc.items()} == expected, trial
        # an entry may be a row's own Laurent, but a later summand never
        # writes into that Laurent's terms
        assert [{w: dict(e._terms) for w, e in row.items()} for row in rows] == before


def test_duplicate_indices_that_cancel_leave_no_entry():
    c = Laurent({-1: 2, 3: -1})
    u = ModuleVector((2, 1), [((1, 0), c), ((0, 1), Q), ((1, 0), -c)])
    assert u._terms == {(0, 1): Q}
    assert ModuleVector((2, 1), [((1, 0), c), ((1, 0), -c)])._terms == {}
    assert ModuleVector((2, 1), [((1, 0), c), ((1, 0), c)]) == v((2, 1), 1, 0).scale(c + c)


def test_the_kernel_matches_the_reference_on_every_vector_the_suites_build(monkeypatch):
    # every _accumulate call of the bar, modules, rmatrix and embed suites
    # is mirrored into a reference dict of the per-summand Laurent loop,
    # its entry compared at once, and each finished vector compared whole
    kernel, finish, value = modules_mod._accumulate, modules_mod._finish, modules_mod._value
    mirrors = {}  # id(data) -> (data, its reference dict); data is kept alive
    finished = []

    def accumulate(data, idx, c, x):
        mirror = mirrors.get(id(data))
        if mirror is None:
            # a sum may start from a copy of a vector's terms
            mirror = mirrors[id(data)] = (data, {k: value(e) for k, e in data.items()})
        ref = mirror[1]
        if idx not in data:
            # never stored, or taken out by the canonical peel
            ref.pop(idx, None)
        kernel(data, idx, c, x)
        _reference_accumulate(ref, idx, c, x)
        assert (value(data[idx]) if idx in data else ZERO) == ref.get(idx, ZERO), (idx, c, x)

    def spied_finish(data):
        # a dict no summand reached is compared with itself
        _, ref = mirrors.pop(id(data), (data, {k: value(e) for k, e in data.items()}))
        out = finish(data)
        assert all(type(e) is Laurent and e._terms for e in out.values())
        assert out == ref
        finished.append(len(out))
        return out

    for mod in (modules_mod, rmatrix_mod, canonical_mod):
        monkeypatch.setattr(mod, "_accumulate", accumulate)
    for mod in (modules_mod, rmatrix_mod):
        monkeypatch.setattr(mod, "_finish", spied_finish)
    for name in ("bar", "modules", "rmatrix", "embed"):
        for total in range(1, 6):
            clear_caches()
            assert SUITES[name](total).passed, (name, total)
            mirrors.clear()
    monkeypatch.undo()
    clear_caches()
    assert len(finished) > 10_000 and max(finished) > 1


def test_module_vector_refuses_a_coefficient_that_is_not_a_ring_element():
    with pytest.raises(TypeError) as info:
        ModuleVector((1,), {(0,): 1})
    assert str(info.value) == "coefficient of (0,) is not a ring element"


def test_combine_refuses_a_coefficient_that_is_not_a_ring_element():
    u, w = v((1,), 0), v((1,), 1)
    for c in (2, None):
        for pairs in ([(c, u)], [(c, u), (ONE, w)], [(ONE, u), (c, w)]):
            with pytest.raises(TypeError, match="is not a ring element"):
                combine((1,), pairs)


def test_inner_product_matches_reference_loop():
    rng = random.Random(6061)
    for d in [(1,), (2,), (2, 1), (1, 2, 1), (3, 2), (1, 1, 1, 1)]:
        for level in range(sum(d) + 1):
            basis = enumerate_basis(d, level)
            pool = [ModuleVector.zero(d)]
            pool += [ModuleVector.basis(d, idx) for idx in basis]
            pool += [
                ModuleVector.basis(d, rng.choice(basis)).scale(
                    Laurent({rng.randrange(-6, 7): rng.randrange(-5, 6) or 1})
                )
                for _ in range(3)
            ]
            pool += [_random_vector(rng, d, level) for _ in range(4)]
            for a in pool:
                for b in pool:
                    assert inner_product(a, b) == _reference_inner_product(a, b)


def _reference_act(u, gen, slots=None):
    """E or F term by term, with the step scalar built from
    quantum_integer(m) * q_power(k) for every term; given a range of
    slots, the comultiplication restricted to those slots."""
    d = u.d
    slots = range(len(d)) if slots is None else slots
    out = ModuleVector.zero(d)
    for idx, c in u.items():
        for k in slots:
            rk = idx[k]
            if gen == "E":
                if rk == 0:
                    continue
                m, target = d[k] - rk + 1, rk - 1
                kw = sum(d[i] - 2 * idx[i] for i in slots if i < k)
            else:
                if rk == d[k]:
                    continue
                m, target = rk + 1, rk + 1
                kw = -sum(d[i] - 2 * idx[i] for i in slots if i > k)
            step = quantum_integer(m) * q_power(kw)
            image = idx[:k] + (target,) + idx[k + 1 :]
            out = out + ModuleVector.basis(d, image).scale(c * step)
    return out


def test_act_e_f_match_reference_step_scalars():
    rng = random.Random(8830)
    for d in [(1,), (3,), (2, 1), (1, 2, 1), (2, 0, 3), (1, 1, 1, 1)]:
        for level in range(sum(d) + 1):
            vectors = [ModuleVector.zero(d)]
            vectors += [ModuleVector.basis(d, idx) for idx in enumerate_basis(d, level)]
            vectors += [_random_vector(rng, d, level) for _ in range(3)]
            draws = _coefficient_draws(rng)
            basis = enumerate_basis(d, level)
            vectors += [ModuleVector.basis(d, rng.choice(basis)).scale(c) for c in draws]
            vectors += [_drawn_vector(rng, d, level, draws) for _ in range(3)]
            for u in vectors:
                assert act_E(u) == _reference_act(u, "E")
                assert act_F(u) == _reference_act(u, "F")


def _reference_act_k(u, sign):
    """K or K^-1 term by term: each coefficient times q^(+-(d - 2r))."""
    out = ModuleVector.zero(u.d)
    for idx, c in u.items():
        weight = sign * (sum(u.d) - 2 * sum(idx))
        out = out + ModuleVector.basis(u.d, idx).scale(c * q_power(weight))
    return out


def _reference_tensor(u, w):
    """The product vector as a sum of basis vectors, one per pair of terms."""
    out = ModuleVector.zero(u.d + w.d)
    for iu, cu in u.items():
        for iw, cw in w.items():
            out = out + ModuleVector.basis(u.d + w.d, iu + iw).scale(cu * cw)
    return out


def test_act_k_and_tensor_match_the_term_by_term_reference():
    rng = random.Random(5150)
    for d in [(1,), (3,), (2, 1), (1, 2, 1), (2, 0, 3)]:
        draws = _coefficient_draws(rng)
        vectors = [ModuleVector.zero(d)]
        for level in range(sum(d) + 1):
            basis = enumerate_basis(d, level)
            vectors += [ModuleVector.basis(d, idx) for idx in basis]
            vectors += [ModuleVector.basis(d, rng.choice(basis)).scale(c) for c in draws]
            vectors += [_drawn_vector(rng, d, level, draws) for _ in range(2)]
        vectors += [vectors[-1] + vectors[1], _random_vector(rng, d, sum(d) // 2)]
        for u in vectors:
            for sign in (1, -1):
                assert act_K(u, sign) == _reference_act_k(u, sign)
        others = [v((2,), 1), v((1, 1), 1, 0).scale(Laurent({0: 1})), ModuleVector.zero((1,))]
        others += [_drawn_vector(rng, (1, 2), 1, draws), _random_vector(rng, (2,), 1)]
        for u in vectors:
            for w in others:
                assert tensor(u, w) == _reference_tensor(u, w)
                assert tensor(w, u) == _reference_tensor(w, u)


def test_a_unit_coefficient_multiplies_nothing(monkeypatch):
    d = (2, 1, 2)
    rng = random.Random(77)
    u = _random_vector(rng, d, 2)
    assert combine(d, [(Laurent({0: 1}), u)]) is u
    assert combine(d, [(ONE, u)]) is u
    assert combine(d, [(Laurent({0: 1}), u), (ZERO, u)]) == u
    basis = [
        ModuleVector.basis(d, idx) for r in range(sum(d) + 1) for idx in enumerate_basis(d, r)
    ]
    # fill the step-scalar memo before counting
    for b in basis:
        act_E(b), act_F(b)
    calls = []
    real = Laurent.__mul__

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Laurent, "__mul__", counted)
    monkeypatch.setattr(Laurent, "__rmul__", counted)
    for b in basis:
        act_E(b), act_F(b), act_K(b), act_K(b, -1)
        tensor(b, v((1,), 1))
    combine(d, [(Laurent({0: 1}), w) for w in basis + [u]])
    assert calls == []


def _reference_theta(u, cut, coeffs):
    """Theta as the package once applied it, to a vector u of the whole
    module: sum_n coeffs[n] F^(n) on the slots before cut and E^(n) on
    the slots from cut on, each through the comultiplication restricted
    to its slot range."""

    def divided(w, gen, n, slots):
        for _ in range(n):
            w = _reference_act(w, gen, slots)
        fact = quantum_factorial(n)
        return w.map_coefficients(lambda c: exact_div(c, fact))

    left, right = range(cut), range(cut, len(u.d))
    out = ModuleVector.zero(u.d)
    n = 0
    while True:
        term = divided(divided(u, "F", n, left), "E", n, right)
        if term.is_zero():
            return out
        out = out + term.scale(coeffs[n])
        n += 1


def test_theta_on_two_factors_matches_the_slot_range_reference():
    kappa = compute_quasi_r(3)
    for d in compositions(6):
        for cut in range(1, len(d)):
            for r in range(sum(d) + 1):
                for idx in enumerate_basis(d, r):
                    left, right = v(d[:cut], *idx[:cut]), v(d[cut:], *idx[cut:])
                    assert theta(left, right, kappa.__getitem__) == _reference_theta(
                        v(d, *idx), cut, kappa
                    ), (d, cut, idx)
    # scaled factors and drawn coefficient lists: fresh units, -1, 0,
    # monomials and polynomials, in the factors and in the coefficients
    rng = random.Random(3141)
    for d in compositions(5):
        for cut in range(1, len(d)):
            draws = _coefficient_draws(rng)
            coeffs = [rng.choice(draws) for _ in kappa]
            for r in range(sum(d) + 1):
                for idx in enumerate_basis(d, r):
                    a, b = rng.choice(draws), rng.choice(draws)
                    left = v(d[:cut], *idx[:cut]).scale(a)
                    right = v(d[cut:], *idx[cut:]).scale(b)
                    whole = v(d, *idx).scale(a * b)
                    for cs in (kappa, coeffs):
                        assert theta(left, right, cs.__getitem__) == _reference_theta(
                            whole, cut, cs
                        ), (d, cut, idx, a, b, cs)


def _reference_act_divided(u, gen, n):
    """X^(n) u as act_divided once built it: n actions of the module's
    act_E or act_F, read at call time, then one exact division of every
    coefficient by [n]!."""
    step = getattr(modules_mod, f"act_{gen}")
    w = u
    for _ in range(n):
        w = step(w)
    fact = quantum_factorial(n)
    try:
        return w.map_coefficients(lambda c: exact_div(c, fact))
    except NonDivisibleError as e:
        raise IntegralityViolationError(f"{gen}^({n}) on Lambda_{u.d}") from e


def test_stepwise_divided_powers_match_the_factorial_reference():
    rng = random.Random(4242)
    for d in compositions(5):
        vectors = [
            ModuleVector.basis(d, idx)
            for r in range(sum(d) + 1)
            for idx in enumerate_basis(d, r)
        ]
        vectors += [
            _random_vector(rng, d, rng.randrange(sum(d) + 1)) for _ in range(3)
        ]
        for u in vectors:
            for gen in ("E", "F"):
                for n in range(5):
                    assert act_divided(u, gen, n) == _reference_act_divided(
                        u, gen, n
                    ), (u, gen, n)


def test_a_faulty_action_breaks_integrality_on_both_paths(monkeypatch):
    # scaling F by a constant c keeps every division exact ((cF)^(n) =
    # c^n F^(n)), so the fault adds one to every coefficient of F u:
    # on Lambda_(2), F'v_0 = 2 v_1 and F'(2 v_1) = (2[2] + 1) v_2, which
    # neither [2] nor [2]! divides
    real = modules_mod.act_F
    monkeypatch.setattr(
        modules_mod, "act_F", lambda u: real(u).map_coefficients(lambda c: c + ONE)
    )
    u = v((2,), 0)
    named = r"F\^\(2\): step 2 .* \[2\] on Lambda_\(2,\)"
    with pytest.raises(IntegralityViolationError, match=named):
        act_divided(u, "F", 2)
    with pytest.raises(IntegralityViolationError):
        _reference_act_divided(u, "F", 2)
    with pytest.raises(IntegralityViolationError):
        theta(u, v((2,), 2), [ONE, ONE, ONE].__getitem__)
