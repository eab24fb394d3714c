"""The value records (LinMap, CanonicalTable, SplitTable, PermWord,
SuiteResult): field-wise equality and repr, a by-value hash for
PermWord alone, frozen fields, and copy and pickle round trips."""

import copy
import pickle

import pytest

from qsl2 import (
    CanonicalTable,
    LinMap,
    ModuleVector,
    PermWord,
    SplitTable,
    SuiteResult,
    canonical_basis,
    split_expand,
)
from qsl2.qring import ONE


def _records():
    """(record, an equal but distinct record, a record that differs in
    one compared field) for each frozen record type."""
    table = canonical_basis((1, 1, 1), 1)
    split = split_expand((1, 2), 1, 1)
    ident = LinMap.identity((1, 1))
    return {
        "LinMap": (
            ident,
            LinMap.identity((1, 1)),
            LinMap((1, 1), (1, 1), {**ident.columns, (0, 0): ident.columns[(1, 1)]}),
        ),
        "CanonicalTable": (
            table,
            CanonicalTable(table.d, table.r, table.order, dict(table.rows)),
            CanonicalTable(
                table.d, table.r, table.order[::-1], table.rows, table.product
            ),
        ),
        "SplitTable": (
            split,
            SplitTable(split.d, split.cut, split.r, split.order, dict(split.rows)),
            SplitTable(split.d, split.cut, split.r, split.order, {}),
        ),
        "PermWord": (PermWord(3, (1, 2)), PermWord(3, (1, 2)), PermWord(3, (2, 1))),
    }


FIELDS = {
    "LinMap": ("source", "target", "columns"),
    "CanonicalTable": ("d", "r", "order", "rows", "product"),
    "SplitTable": ("d", "cut", "r", "order", "rows"),
    "PermWord": ("slots", "letters"),
}
RECORDS = sorted(FIELDS)


@pytest.mark.parametrize("kind", RECORDS)
def test_equality_is_field_wise(kind):
    rec, twin, other = _records()[kind]
    assert twin is not rec
    assert rec == twin and not rec != twin
    assert rec != other and not rec == other
    # another type never compares equal, even with the same field values
    assert rec != tuple(getattr(rec, name) for name in FIELDS[kind])


def test_canonical_table_equality_ignores_product():
    table = canonical_basis((1, 1, 1), 1)
    assert table.product is not None
    bare = CanonicalTable(table.d, table.r, table.order, table.rows)
    other = CanonicalTable(table.d, table.r, table.order, table.rows, {"anything": 1})
    assert bare.product is None
    assert table == bare == other


def test_repr_strings():
    assert repr(PermWord(3, (1, 2))) == "PermWord(slots=3, letters=(1, 2))"
    assert repr(PermWord(1, ())) == "PermWord(slots=1, letters=())"
    v = ModuleVector((1,), {(0,): ONE})
    w = ModuleVector((1,), {(1,): ONE})
    assert repr(LinMap((1,), (1,), {(0,): v, (1,): w})) == (
        f"LinMap(source=(1,), target=(1,), columns={{(0,): {v!r}, (1,): {w!r}}})"
    )
    table = canonical_basis((1, 1), 1)
    assert repr(table) == (
        f"CanonicalTable(d=(1, 1), r=1, order={table.order!r}, rows={table.rows!r})"
    )
    assert "product" not in repr(table)
    split = split_expand((1, 2), 1, 1)
    assert repr(split) == (
        f"SplitTable(d=(1, 2), cut=1, r=1, order={split.order!r}, rows={split.rows!r})"
    )
    assert repr(SuiteResult("x")) == (
        "SuiteResult(name='x', checks=0, failures=[], truncated=False)"
    )


def test_permword_hash_is_stable_and_by_value():
    w = PermWord(3, (1, 2))
    assert hash(w) == hash(w) == hash(PermWord(3, (1, 2)))
    assert len({w, PermWord(3, (1, 2)), PermWord(3, (2, 1))}) == 2
    assert {w: "a"}[PermWord(3, (1, 2))] == "a"


@pytest.mark.parametrize("kind", [k for k in RECORDS if k != "PermWord"])
def test_records_holding_a_dict_are_unhashable(kind):
    rec, _, _ = _records()[kind]
    assert type(rec).__hash__ is None
    with pytest.raises(TypeError):
        hash(rec)


@pytest.mark.parametrize("kind", RECORDS)
def test_frozen_fields(kind):
    rec, twin, _ = _records()[kind]
    for name in FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert rec == twin


def test_permword_validates_in_its_constructor():
    with pytest.raises(ValueError, match="a word needs at least one slot"):
        PermWord(0, ())
    with pytest.raises(ValueError, match="letter 2 out of range for 2 slots"):
        PermWord(2, (2,))
    with pytest.raises(ValueError, match="letter 0 out of range for 3 slots"):
        PermWord(3, (1, 0))


@pytest.mark.parametrize("kind", RECORDS)
@pytest.mark.parametrize(
    "how",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_round_trip(kind, how):
    rec, _, _ = _records()[kind]
    dup = how(rec)
    assert type(dup) is type(rec)
    assert dup == rec
    for name in FIELDS[kind]:
        assert getattr(dup, name) == getattr(rec, name)


def test_copies_of_a_table_keep_its_product():
    table = canonical_basis((1, 1, 1), 1)
    for dup in (
        copy.copy(table),
        copy.deepcopy(table),
        pickle.loads(pickle.dumps(table)),
    ):
        assert dup.product == table.product
        assert dup.render() == table.render()
    assert copy.copy(table).product is table.product
    assert copy.deepcopy(table).product is not table.product


def test_split_table_position_is_derived_and_not_compared():
    split = split_expand((1, 1, 1), 1, 1)
    assert split._position == {idx: i for i, idx in enumerate(split.order)}
    assert "_position" not in repr(split)
    assert split.__reduce__()[1] == (split.d, split.cut, split.r, split.order, split.rows)
    for dup in (copy.deepcopy(split), pickle.loads(pickle.dumps(split))):
        assert dup == split and repr(dup) == repr(split)
        # a copy's order equals the level's order, so it shares the level's map
        assert dup._position is split._position
        assert dup.render() == split.render()
    # a record whose derived map differs still equals one whose fields match
    other = SplitTable(split.d, split.cut, split.r, split.order, split.rows)
    object.__setattr__(other, "_position", {})
    assert other == split and repr(other) == repr(split)
    with pytest.raises(AttributeError):
        split._position = {}


def test_suite_result_is_mutable_and_unhashable():
    a, b = SuiteResult("x"), SuiteResult("x")
    assert a.failures is not b.failures
    assert a == b
    a.failures.append("w")
    assert b.failures == [] and a != b
    a.checks = 5
    a.truncated = True
    assert (a.checks, a.truncated) == (5, True)
    assert SuiteResult("x", 3, ["w"], True) == SuiteResult(
        name="x", checks=3, failures=["w"], truncated=True
    )
    assert SuiteResult("x") != SuiteResult("y")
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    for how in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert how(a) == a
    assert copy.copy(a).failures is a.failures
    assert copy.deepcopy(a).failures is not a.failures
