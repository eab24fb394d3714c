"""The Laurent ring in q^(1/2): canonical form, arithmetic, bar,
quantum combinatorics, exact division, serialization, rendering."""

import random
from collections import defaultdict

import pytest

import qsl2.qring as qring_mod
from qsl2.errors import NonDivisibleError
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
from test_canonical import _has_zero_constant_term, _is_bar_antisymmetric


def _random_laurent(rng, span=8, size=5):
    return Laurent(
        {
            rng.randrange(-span, span + 1): rng.randrange(-9, 10)
            for _ in range(rng.randrange(0, size))
        }
    )


def test_canonical_form():
    assert Laurent({}) == ZERO
    assert Laurent({2: 0, -4: 0}) == ZERO
    assert Laurent({0: 1}) == ONE
    assert Laurent({2: 1}) == Q
    assert Laurent({-2: 1}) == QINV
    assert not ZERO
    assert Q
    assert Laurent({2: 3, 0: -1}) == Laurent({0: -1, 2: 3})
    assert hash(Laurent({2: 3, 0: -1})) == hash(Laurent({0: -1, 2: 3}))


def test_arithmetic():
    a = Laurent({2: 1, 0: -2})
    b = Laurent({-2: 3})
    assert a + b == Laurent({2: 1, 0: -2, -2: 3})
    assert a - a == ZERO
    assert -a == Laurent({2: -1, 0: 2})
    assert a * ZERO == ZERO
    assert a * ONE == a
    assert Q * QINV == ONE
    assert (Q + QINV) * (Q - QINV) == Laurent({4: 1, -4: -1})
    # the general loop drops the terms that cancel
    assert ((ONE + Q) * (ONE - Q + Q * Q))._terms == {0: 1, 6: 1}
    assert Q ** 0 == ONE
    assert Q ** 5 == q_power(5)
    assert (Q + ONE) ** 2 == Laurent({4: 1, 2: 2, 0: 1})
    with pytest.raises(ValueError):
        Q ** -1


def _reference_terms(x):
    if isinstance(x, int):
        return {0: x} if x else {}
    return dict(x.items())


def _reference_mul(a, b):
    """The general double loop of Laurent.__mul__, kept as the reference
    for its unit and monomial fast paths."""
    data = {}
    for h1, c1 in _reference_terms(a).items():
        for h2, c2 in _reference_terms(b).items():
            h = h1 + h2
            nc = data.get(h, 0) + c1 * c2
            if nc:
                data[h] = nc
            elif h in data:
                del data[h]
    return data


def _reference_add(a, b):
    """The dict add of Laurent.__add__, kept as the reference for its
    zero fast path."""
    data = _reference_terms(a)
    for h, c in _reference_terms(b).items():
        nc = data.get(h, 0) + c
        if nc:
            data[h] = nc
        elif h in data:
            del data[h]
    return data


def test_fast_paths_match_reference_loops():
    rng = random.Random(9120)
    pool = [ZERO, ONE, -ONE, Q, QINV, q_half(1), q_half(-3), Laurent({0: 1, 1: 0})]
    pool += [Laurent({rng.randrange(-9, 10): rng.choice([-3, -1, 1, 2])}) for _ in range(8)]
    pool += [_random_laurent(rng) for _ in range(16)]
    pool += [0, 1, -1, 5]
    pairs = [(a, b) for a in pool for b in pool]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(400)]
    for a, b in pairs:
        if isinstance(a, int) and isinstance(b, int):
            continue
        before = (_reference_terms(a), _reference_terms(b))
        product = a * b
        total = a + b
        assert type(product) is Laurent and type(total) is Laurent
        assert dict(product.items()) == _reference_mul(a, b)
        assert dict(total.items()) == _reference_add(a, b)
        assert product == Laurent(_reference_mul(a, b))
        assert hash(product) == hash(Laurent(_reference_mul(a, b)))
        assert hash(total) == hash(Laurent(_reference_add(a, b)))
        assert (_reference_terms(a), _reference_terms(b)) == before


def test_trusted_constructor_matches_general_constructor():
    rng = random.Random(4417)
    raws = [{}, {0: 0}, {0: 1}, {0: -1}, {1: 1}, {-3: -2}, {2: 0, -5: 3}, {7: 0, 0: 0}]
    raws += [
        {rng.randrange(-9, 10): rng.randrange(-3, 4) for _ in range(rng.randrange(0, 7))}
        for _ in range(200)
    ]
    for raw in raws:
        for given in (dict(raw), defaultdict(int, raw)):
            x = Laurent._from_raw(given)
            ref = Laurent(raw)
            assert type(x) is Laurent and type(x._terms) is dict
            assert x._terms == ref._terms and hash(x) == hash(ref)
            assert x._terms is not given
            given[99] = 1
            assert 99 not in x._terms


def test_hash_agrees_with_int_equality():
    assert ONE == 1 and hash(ONE) == hash(1)
    assert ZERO == 0 and hash(ZERO) == hash(0)
    assert hash(Laurent({0: -7})) == hash(-7)
    assert 1 in {ONE}
    assert ONE in {1: "x"}
    assert 0 in {ZERO}
    assert {ONE: "x"}[1] == "x"
    assert Laurent({0: 3}) in {3}
    assert Q not in {1, 0}


def test_bools_are_not_ints_here():
    # a bool half-exponent once printed as 2q^(True/2) and serialized as
    # [[true, "2"]]; exponents and coefficients must be of type int
    for terms in ({True: 2}, {2: True}, {False: 1}, {0: False}, [(True, 1)], [(1, True)]):
        with pytest.raises(TypeError):
            Laurent(terms)
    for flag in (True, False):
        with pytest.raises(TypeError):
            Laurent.from_int(flag)
        with pytest.raises(TypeError):
            q_power(flag)
        with pytest.raises(TypeError):
            q_half(flag)
        with pytest.raises(TypeError):
            Q * flag
        with pytest.raises(TypeError):
            Q + flag
        assert (ONE == flag) is False and (ZERO == flag) is False
    with pytest.raises(TypeError):
        q_power(1.0)
    assert Laurent({1: 2}).to_pairs() == [[1, "2"]]
    assert q_power(1) == Q and q_half(1) * q_half(1) == Q
    assert Q * 1 == Q and Q + 0 == Q and ONE == 1


def test_pow_refuses_a_bool():
    # Q ** True once printed q, a bool read as the int 1
    for flag in (True, False):
        with pytest.raises(ValueError, match="nonnegative integer powers"):
            Q ** flag
    assert Q ** 1 == Q and Q ** 0 == ONE


def test_quantum_integer_refuses_a_bool():
    # quantum_integer(True) once returned [1], a bool read as the int 1
    for flag in (True, False):
        with pytest.raises(ValueError, match="quantum integer needs n >= 0"):
            quantum_integer(flag)
    assert quantum_integer(1) == ONE and quantum_integer(0) == ZERO


def test_quantum_factorial_refuses_a_bool():
    for flag in (True, False):
        with pytest.raises(ValueError, match="quantum factorial needs n >= 0"):
            quantum_factorial(flag)
    assert quantum_factorial(1) == ONE and quantum_factorial(0) == ONE


def test_quantum_binomial_refuses_a_bool_in_either_argument():
    for n, r in ((True, 1), (True, 0), (1, True), (1, False), (True, True)):
        with pytest.raises(ValueError, match=r"quantum binomial needs 0 <= r <= n"):
            quantum_binomial(n, r)
    assert quantum_binomial(1, 1) == ONE and quantum_binomial(1, 0) == ONE


def test_powers_of_q():
    assert q_power(1) == Q
    assert q_power(-1) == QINV
    assert q_power(3) == q_half(6)
    assert q_half(1) * q_half(1) == Q
    assert q_half(-3) * q_half(3) == ONE


def test_bar():
    rng = random.Random(7)
    assert Q.bar() == QINV
    assert q_half(3).bar() == q_half(-3)
    for _ in range(80):
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        assert a.bar().bar() == a
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()


def test_quantum_integers():
    assert quantum_integer(0) == ZERO
    assert quantum_integer(1) == ONE
    assert quantum_integer(2) == Q + QINV
    assert quantum_integer(3) == Laurent({4: 1, 0: 1, -4: 1})
    with pytest.raises(ValueError):
        quantum_integer(-1)
    for n in range(13):
        assert quantum_integer(n).bar() == quantum_integer(n)


def test_quantum_factorial():
    assert quantum_factorial(0) == ONE
    assert quantum_factorial(1) == ONE
    assert quantum_factorial(2) == Q + QINV
    assert quantum_factorial(3) == quantum_integer(3) * quantum_integer(2)
    assert quantum_factorial(5) == (
        quantum_integer(5) * quantum_factorial(4)
    )


def test_quantum_binomial_values():
    assert quantum_binomial(0, 0) == ONE
    assert quantum_binomial(4, 0) == ONE
    assert quantum_binomial(4, 4) == ONE
    assert quantum_binomial(2, 1) == Q + QINV
    assert quantum_binomial(4, 2) == Laurent(
        {8: 1, 4: 1, 0: 2, -4: 1, -8: 1}
    )
    with pytest.raises(ValueError):
        quantum_binomial(3, 4)
    with pytest.raises(ValueError):
        quantum_binomial(3, -1)


def test_quantum_binomial_identities():
    for n in range(13):
        for r in range(n + 1):
            b = quantum_binomial(n, r)
            assert b == quantum_binomial(n, n - r)
            assert b.bar() == b
            assert b == exact_div(
                quantum_factorial(n),
                quantum_factorial(r) * quantum_factorial(n - r),
            )
            # every coefficient of a quantum binomial is a positive count
            assert all(c > 0 for _, c in b.items())


def _reference_binomial(n, r):
    """[n - r + t choose t] for t = 0..r, by the product formula: step t
    multiplies the last value by [n - r + t] through a Laurent product
    and divides it by [t] with exact_div.  The last is [n choose r]."""
    out = [ONE]
    for t in range(1, r + 1):
        out.append(exact_div(out[-1] * quantum_integer(n - r + t), quantum_integer(t)))
    return out


def test_quantum_binomial_matches_the_product_formula():
    # one run of the product formula checks a whole diagonal n - r = k:
    # every (n, r) with n <= 40, and r <= 3 up to n = 300
    runs = [(40, 40 - k) for k in range(41)] + [(n, 3) for n in range(41, 301)]
    for n, r in runs:
        for t, value in enumerate(_reference_binomial(n, r)):
            assert quantum_binomial(n - r + t, t) == value, (n - r + t, t)


def test_cold_quantum_binomial_takes_no_laurent_product_or_division(monkeypatch):
    calls = []
    mul, div = Laurent.__mul__, qring_mod.exact_div
    monkeypatch.setattr(Laurent, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
    monkeypatch.setattr(
        qring_mod, "exact_div", lambda a, b: calls.append("div") or div(a, b)
    )
    quantum_binomial.cache_clear()
    b = quantum_binomial(5000, 2)
    monkeypatch.undo()
    quantum_binomial.cache_clear()
    assert calls == []
    # the Gaussian binomial at x = 1 counts 2-subsets, and its degree in
    # x is r(n - r)
    terms = b._terms
    assert sum(terms.values()) == 5000 * 4999 // 2
    assert sorted(terms) == list(range(-4 * 4998, 4 * 4998 + 1, 4))
    assert b.bar() == b


_DIVISION = qring_mod._divide_one_minus


def _short_division(coeffs, i):
    # stops one entry short, so the top entry keeps the product's
    for j in range(i, len(coeffs) - 1):
        coeffs[j] += coeffs[j - i]


def _division_by_the_next_power(coeffs, i):
    _DIVISION(coeffs, i + 1)


@pytest.mark.parametrize("fault", [_short_division, _division_by_the_next_power])
def test_a_faulty_division_pass_raises_naming_n_and_r(monkeypatch, fault):
    quantum_binomial.cache_clear()
    monkeypatch.setattr(qring_mod, "_divide_one_minus", fault)
    with pytest.raises(NonDivisibleError, match=r"^quantum binomial \(7, 3\): "):
        quantum_binomial(7, 3)
    monkeypatch.undo()
    quantum_binomial.cache_clear()
    # the true pass leaves no remainder
    assert quantum_binomial(7, 3) == _reference_binomial(7, 3)[-1]


def test_exact_div():
    assert exact_div(ZERO, Q) == ZERO
    assert exact_div(Laurent({4: 1, -4: -1}), Q - QINV) == Q + QINV
    rng = random.Random(11)
    for _ in range(100):
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)
    with pytest.raises(NonDivisibleError):
        exact_div(Q + ONE, Q - ONE)
    with pytest.raises(NonDivisibleError):
        exact_div(Q, Laurent({0: 2}))
    with pytest.raises(NonDivisibleError):
        exact_div(Q + ONE, Q + Q)


def test_exact_div_refuses_a_divisor_of_higher_degree():
    # a dividend spanning fewer exponents than the divisor is all
    # remainder: the long division takes no step
    with pytest.raises(NonDivisibleError) as info:
        exact_div(ONE, Q + ONE)
    assert str(info.value) == "(1) is not divisible by (q + 1)"


def test_exact_div_leftover_remainder():
    # q^2 + 1 = (q + 1)(q - 1) + 2, and q^4 + q^2 + 1 = (q^2 + 1) q^2 + 1:
    # every leading quotient is an integer, the remainder is not zero
    with pytest.raises(NonDivisibleError):
        exact_div(Q * Q + ONE, Q + ONE)
    with pytest.raises(NonDivisibleError):
        exact_div(q_power(4) + q_power(2) + ONE, q_power(2) + ONE)


def test_exact_div_non_integer_leading_quotient():
    two = Laurent.from_int(2)
    # 2q^2 + 2q + 1 = (2q + 1) q + (q + 1), and 1 is not a multiple of 2
    with pytest.raises(NonDivisibleError):
        exact_div(two * Q * Q + two * Q + ONE, two * Q + ONE)
    with pytest.raises(NonDivisibleError):
        exact_div(Laurent.from_int(3) * Q, two)
    assert exact_div(two * Q * Q + Laurent.from_int(3) * Q + ONE, two * Q + ONE) == Q + ONE


def test_exact_div_divisor_with_gaps():
    gappy = Laurent({6: 1, 0: -2, -6: 1})
    assert exact_div(q_power(4) - ONE, q_power(2) + ONE) == q_power(2) - ONE
    for c in (ONE, Q, Laurent({4: 3, -2: -1}), Laurent({8: 1, 0: 5, -10: -2})):
        quotient = exact_div(c * gappy, gappy)
        assert quotient == c
        assert 0 not in quotient._terms.values()


def test_exact_div_odd_half_exponents():
    root = Laurent({1: 1, -1: 1})  # q^(1/2) + q^(-1/2)
    c = Laurent({3: 2, -1: -1, -5: 1})
    assert exact_div(c * root, root) == c
    # q^(5/2) + q^(1/2) = q^(3/2) (q + q^-1)
    assert exact_div(Laurent({5: 1, 1: 1}), Q + QINV) == Laurent({3: 1})
    with pytest.raises(NonDivisibleError):
        exact_div(Laurent({1: 1, 0: 1}), Laurent({1: 1, 0: -1}))
    with pytest.raises(NonDivisibleError):
        exact_div(Laurent({3: 1, 0: 1}), root)


def test_serialization():
    a = Laurent({3: -2, -1: 10 ** 30, 0: 7})
    pairs = a.to_pairs()
    assert pairs == [[-1, str(10 ** 30)], [0, "7"], [3, "-2"]]
    assert ZERO.to_pairs() == []
    rng = random.Random(13)
    for _ in range(50):
        x = _random_laurent(rng, span=20)
        pairs = x.to_pairs()
        # one [half-exponent, decimal coefficient] per term, ascending
        assert [h for h, _ in pairs] == sorted(x._terms)
        assert all(c == str(x._terms[h]) for h, c in pairs)


def test_membership_predicates():
    assert ONE.is_in_a()
    assert (Q + QINV).is_in_a()
    assert not q_half(1).is_in_a()
    assert ZERO.is_in_a()

    assert ZERO.is_in_qinv_z_nonneg()
    assert Laurent({-2: 1, -6: 1}).is_in_qinv_z_nonneg()
    assert not ONE.is_in_qinv_z_nonneg()
    assert not (ONE + QINV).is_in_qinv_z_nonneg()
    assert not Laurent({-2: -1}).is_in_qinv_z_nonneg()
    assert not Laurent({-1: 1}).is_in_qinv_z_nonneg()
    assert not Q.is_in_qinv_z_nonneg()

    assert _is_bar_antisymmetric(Q - QINV)
    assert _is_bar_antisymmetric(ZERO)
    assert not _is_bar_antisymmetric(Q + QINV)
    assert _has_zero_constant_term(Q - QINV)
    assert not _has_zero_constant_term(ONE)


def test_negative_half_solves_bar_equation():
    # for bar-antisymmetric g with zero constant term, p = negative half
    # satisfies bar(p) - p = -g, the correction used by the canonical
    # basis algorithm
    rng = random.Random(17)
    for _ in range(60):
        a = Laurent(
            {
                rng.randrange(1, 9): rng.randrange(-9, 10)
                for _ in range(rng.randrange(0, 5))
            }
        )
        g = a - a.bar()
        assert _is_bar_antisymmetric(g)
        assert _has_zero_constant_term(g)
        p = g.negative_half()
        assert p.bar() - p == -g


def test_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert str(QINV) == "q^-1"
    assert str(Laurent({4: 1})) == "q^2"
    assert str(q_half(3)) == "q^(3/2)"
    assert str(q_half(-1)) == "q^(-1/2)"
    assert str(Laurent({2: -1, -2: 1})) == "-q + q^-1"
    assert str(Laurent({0: 2, -8: -3})) == "2 - 3q^-4"
    assert (
        str(quantum_binomial(4, 2)) == "q^4 + q^2 + 2 + q^-2 + q^-4"
    )
