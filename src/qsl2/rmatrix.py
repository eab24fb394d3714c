"""Braiding maps on tensor modules.

The positive braiding of a pair Lambda_(d1,d2) -> Lambda_(d2,d1) is the
universal formula read right to left: first the quasi-R style operator
Theta_R = sum_n bar(kappa_n) F^(n) tensor E^(n), then the Cartan
correction v_a tensor v_b -> q^((d1-2a)(d2-2b)/2) on weight lines, then
the slot transposition, and finally the global scalar
(-q^(3/2))^(d1 d2).  Theta_R keeps no coefficient list of its own: on
a pair both slots are single factors, whose divided-power entries are
bar-invariant quantum binomials, so Theta_R is bar composed with the
bar involution Psi, read from the memoized Psi columns of the checked
kappa.  Half powers of q appear in the middle two steps and must
cancel; any odd half-exponent surviving to a matrix entry raises
HalfPowerLeakError, which is how a mis-ordered composition announces
itself.

The negative braiding is Psi R_+ Psi, built from the bar involutions
of source and target and no canonical table.  Both canonical bases are
Psi-fixed, so its canonical-basis matrix is the entrywise bar of the
positive one's; it is checked to be the exact two-sided inverse of the
positive braiding on construction.  Longer moves compose pair
braidings letter by letter along a reduced word, tracking the evolving
composition; the result depends only on the permutation, which the
verification suite confirms by comparing reduced words.  Every braiding
is a plain LinMap, its source and target the compositions before and
after the move.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import orbits
from .canonical import _MEMO, bar_involution, canonical_basis, canonical_coords
from .errors import (
    HalfPowerLeakError,
    InverseCheckFailedError,
    NonReducedWordError,
)
from .modules import LinMap, ModuleVector, _Record, enumerate_basis
from .qring import Laurent, ZERO, q_half

__all__ = [
    "PermWord",
    "r_plus_pair",
    "r_minus_pair",
    "r_move",
    "matrix_in_basis",
    "lift_word",
]

Composition = orbits.Composition
OrbitIndex = orbits.OrbitIndex


class PermWord(_Record):
    """A word in the adjacent transpositions s_1 .. s_(slots-1), letters
    1-based and applied left to right, stored as a tuple."""

    __slots__ = ("slots", "letters")

    def __init__(self, slots: int, letters: Iterable[int]):
        if slots < 1:
            raise ValueError("a word needs at least one slot")
        letters = tuple(letters)
        for a in letters:
            if type(a) is not int:
                raise ValueError(f"letter {a!r} is not an int")
            if not 1 <= a <= slots - 1:
                raise ValueError(f"letter {a} out of range for {slots} slots")
        self._set(slots=slots, letters=letters)

    def permutation(self) -> tuple[int, ...]:
        """arrangement[pos] = the original slot now sitting at pos."""
        arr = list(range(self.slots))
        for a in self.letters:
            arr[a - 1], arr[a] = arr[a], arr[a - 1]
        return tuple(arr)

    def inversions(self) -> int:
        arr = self.permutation()
        return sum(
            1
            for i in range(len(arr))
            for j in range(i + 1, len(arr))
            if arr[i] > arr[j]
        )

    def is_reduced(self) -> bool:
        return len(self.letters) == self.inversions()

    def apply_to(self, d: Composition) -> Composition:
        if len(d) != self.slots:
            raise ValueError(f"word on {self.slots} slots applied to {d}")
        arr = self.permutation()
        return tuple(d[arr[pos]] for pos in range(self.slots))


# -- the pair braiding ---------------------------------------------------------


def _cartan_step(u: ModuleVector) -> ModuleVector:
    c1, c2 = u.d
    data = {
        (a, b): coeff * q_half((c1 - 2 * a) * (c2 - 2 * b))
        for (a, b), coeff in u.items()
    }
    return ModuleVector._make(u.d, data)


def _swap_step(u: ModuleVector) -> ModuleVector:
    c1, c2 = u.d
    data = {(b, a): coeff for (a, b), coeff in u.items()}
    return ModuleVector._make((c2, c1), data)


def _r_plus_columns(d1: int, d2: int) -> dict[OrbitIndex, ModuleVector]:
    """Standard-basis columns of the positive pair braiding, read right
    to left: Theta_R, then the Cartan step, then the swap, then the
    scalar.  F^(n) tensor E^(n) has bar-invariant entries on single
    factors, so Theta_R = bar Psi here, and bar Psi is linear."""
    scalar = Laurent({3 * d1 * d2: (-1) ** (d1 * d2)})
    columns: dict[OrbitIndex, ModuleVector] = {}
    for r in range(d1 + d2 + 1):
        for idx in enumerate_basis((d1, d2), r):
            u = bar_involution(ModuleVector.basis((d1, d2), idx))
            u = u.map_coefficients(Laurent.bar)
            columns[idx] = _swap_step(_cartan_step(u)).scale(scalar)
    return columns


def r_plus_pair(d1: int, d2: int) -> LinMap:
    """The positive braiding Lambda_(d1,d2) -> Lambda_(d2,d1); every
    matrix entry must land in Z[q, q^-1].  Reads kappa_1 .. kappa_min(d1, d2)
    through the bar involution, so a cold call may solve them and raise
    ConventionUnderdeterminedError from that solve."""
    d1, d2 = orbits.check_composition((d1, d2))
    key = ("pair", d1, d2, "plus")
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    columns = _r_plus_columns(d1, d2)
    for idx, image in columns.items():
        for s, c in image.items():
            if not c.is_in_a():
                raise HalfPowerLeakError(
                    f"entry ({c}) of R_+ on ({d1},{d2}) at {idx} -> {s} "
                    f"has a half power of q"
                )
    out = LinMap((d1, d2), (d2, d1), columns)
    _MEMO[key] = out
    return out


def r_minus_pair(d1: int, d2: int) -> LinMap:
    """The negative braiding Psi R_+ Psi, whose canonical matrix is the
    entrywise bar of that of r_plus_pair(d1, d2).  Checked to invert
    r_plus_pair(d2, d1) on both sides before being returned."""
    d1, d2 = orbits.check_composition((d1, d2))
    key = ("pair", d1, d2, "minus")
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    plus = r_plus_pair(d1, d2)
    src, tgt = (d1, d2), (d2, d1)
    columns = {
        idx: bar_involution(plus.apply(bar_involution(ModuleVector.basis(src, idx))))
        for r in range(d1 + d2 + 1)
        for idx in enumerate_basis(src, r)
    }
    out = LinMap(src, tgt, columns)

    partner = r_plus_pair(d2, d1)
    ident_src = LinMap.identity(src)
    ident_tgt = LinMap.identity(tgt)
    if partner.compose(out) != ident_src:
        raise InverseCheckFailedError(
            f"R_+({d2},{d1}) after R_-({d1},{d2}) is not the identity"
        )
    if out.compose(partner) != ident_tgt:
        raise InverseCheckFailedError(
            f"R_-({d1},{d2}) after R_+({d2},{d1}) is not the identity"
        )
    _MEMO[key] = out
    return out


# -- moves along reduced words ----------------------------------------------------


def _extend_pair(pair: LinMap, c: Composition, a: int) -> LinMap:
    """id (x) pair (x) id, the pair map eating slots a-1 and a of
    Lambda_c (letters are 1-based)."""
    new_c = c[: a - 1] + (c[a], c[a - 1]) + c[a + 1 :]
    columns: dict[OrbitIndex, ModuleVector] = {}
    for r in range(sum(c) + 1):
        for idx in enumerate_basis(c, r):
            data = {
                idx[: a - 1] + pidx + idx[a + 1 :]: coeff
                for pidx, coeff in pair.columns[idx[a - 1], idx[a]].items()
            }
            columns[idx] = ModuleVector._make(new_c, data)
    return LinMap(c, new_c, columns)


def _word_on(d: Composition, word: PermWord | Iterable[int]) -> PermWord:
    """word as a PermWord on the slots of d: a sequence of letters is
    checked by the PermWord constructor, a PermWord for its slot count."""
    if not isinstance(word, PermWord):
        return PermWord(len(d), word)
    if word.slots != len(d):
        raise ValueError(f"word on {word.slots} slots against {d}")
    return word


def r_move(
    d: Composition, word: PermWord | Iterable[int], sign: str = "plus"
) -> LinMap:
    """Compose pair braidings along a reduced word, one letter at a
    time, left to right.  The result depends only on the permutation;
    a non-reduced word is rejected rather than silently normalized."""
    d = orbits.check_composition(d)
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be plus or minus, got {sign!r}")
    word = _word_on(d, word)
    if not word.is_reduced():
        raise NonReducedWordError(
            f"word {list(word.letters)} has length {len(word.letters)} "
            f"but only {word.inversions()} inversions"
        )
    if not word.letters:
        return LinMap.identity(d)
    total = None
    current = d
    for a in word.letters:
        pair = (
            r_plus_pair(current[a - 1], current[a])
            if sign == "plus"
            else r_minus_pair(current[a - 1], current[a])
        )
        step = _extend_pair(pair, current, a)
        total = step if total is None else step.compose(total)
        current = step.target
    return total


def lift_word(d: Composition, word: PermWord | Iterable[int]) -> list[int]:
    """Refine a word on the slots of d to a word on the sum(d) strands
    of the dense refinement: each letter becomes the block shuffle
    moving d_a strands past d_(a+1) strands."""
    d = orbits.check_composition(d)
    current = list(d)
    out: list[int] = []
    for a in _word_on(d, word).letters:
        m, n = current[a - 1], current[a]
        offset = sum(current[: a - 1])
        out.extend(offset + m - i + j for j in range(n) for i in range(m))
        current[a - 1], current[a] = n, m
    return out


# -- matrices ----------------------------------------------------------------------


def matrix_in_basis(
    m: LinMap, basis: str = "standard"
) -> dict[int, list[list[Laurent]]]:
    """Per-level matrices of a weight-preserving map (a braiding move,
    the refinement embedding); rows run over the target linear
    extension, columns over the source one.  Levels are the blocks of
    the weight decomposition, so the full map is the direct sum of the
    returned matrices."""
    if basis not in ("standard", "canonical"):
        raise ValueError(f"basis must be standard or canonical, got {basis!r}")
    out: dict[int, list[list[Laurent]]] = {}
    for r in range(sum(m.source) + 1):
        src_order = enumerate_basis(m.source, r)
        tgt_order = enumerate_basis(m.target, r)
        if basis == "standard":
            entry = lambda i, j: m.columns[j].coeff(i)
        else:
            s_table = canonical_basis(m.source, r)
            t_table = canonical_basis(m.target, r)
            coords = {
                j: dict(canonical_coords(t_table, m.apply(s_table.rows[j])))
                for j in s_table.order
            }
            entry = lambda i, j: coords[j].get(i, ZERO)
        out[r] = [[entry(i, j) for j in src_order] for i in tgt_order]
    return out
