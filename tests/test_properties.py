"""Property tests for the ring (L0), the module actions (L1) and the
split expansion (L4) on random small inputs.  Skipped when hypothesis
is not installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qsl2 import Laurent, ModuleVector, canonical_basis, split_expand  # noqa: E402
from qsl2.modules import act_divided, combine, enumerate_basis, tensor  # noqa: E402
from qsl2.qring import ONE, ZERO, exact_div, quantum_binomial  # noqa: E402

# no example database, so a run leaves no files behind
PROPERTY = settings(max_examples=60, deadline=None, database=None)

laurents = st.dictionaries(
    st.integers(-8, 8), st.integers(-6, 6), max_size=4
).map(Laurent)
nonzero_laurents = laurents.filter(lambda c: not c.is_zero())


@st.composite
def vectors(draw):
    """A vector of one level of a composition with small parts."""
    d = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    r = draw(st.integers(0, sum(d)))
    coeffs = draw(st.lists(nonzero_laurents, min_size=len(enumerate_basis(d, r))))
    return ModuleVector(d, zip(enumerate_basis(d, r), coeffs))


@PROPERTY
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ZERO == a and a + (-a) == ZERO
    assert a - b == a + (-b)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * ONE == a and a * ZERO == ZERO
    assert a * (b + c) == a * b + a * c


@PROPERTY
@given(laurents, laurents)
def test_bar_is_a_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@PROPERTY
@given(laurents, nonzero_laurents)
def test_exact_div_inverts_multiplication(a, b):
    assert exact_div(a * b, b) == a


@settings(PROPERTY, max_examples=200)
@given(vectors(), st.integers(0, 3), st.integers(0, 3), st.sampled_from("EF"))
def test_divided_powers_compose_by_binomials(u, m, n, gen):
    # X^(m) X^(n) = [m+n choose n] X^(m+n) for X in {E, F}
    lhs = act_divided(act_divided(u, gen, n), gen, m)
    assert lhs == act_divided(u, gen, m + n).scale(quantum_binomial(m + n, n))


@st.composite
def split_cases(draw):
    """A composition of total <= 8 with 2 to 4 parts, a cut and a level."""
    d = tuple(
        draw(
            st.lists(st.integers(0, 4), min_size=2, max_size=4).filter(
                lambda parts: sum(parts) <= 8
            )
        )
    )
    return d, draw(st.integers(1, len(d) - 1)), draw(st.integers(0, sum(d)))


@PROPERTY
@given(split_cases())
def test_split_rows_rebuild_the_standard_rows(case):
    # sum_s c_{t,s} b'_(s[:cut]) tensor b''_(s[cut:]) = b_t, read from
    # standard rows only, whatever the split read
    d, cut, r = case
    split = split_expand(d, cut, r)
    for t, coords in split.rows.items():
        rebuilt = combine(
            d,
            (
                (
                    c,
                    tensor(
                        canonical_basis(d[:cut], sum(s[:cut])).rows[s[:cut]],
                        canonical_basis(d[cut:], sum(s[cut:])).rows[s[cut:]],
                    ),
                )
                for s, c in coords.items()
            ),
        )
        assert rebuilt == canonical_basis(d, r).rows[t]
