"""Bar involution, canonical bases, split expansion, refinement embedding.

The bar involution Psi on Lambda_d is anti-linear (coefficients are
barred), fixes every standard basis vector of a single factor, and on a
tensor product is the naive factorwise bar corrected by the quasi-R
operator Theta = sum_n kappa_n F^(n) tensor E^(n), applied with F^(n)
on the left block and E^(n) on the right block of a chosen cut.  The
recursion nests left to right by default; coassociativity makes the
result independent of the nesting, which the verification suite checks
rather than assumes.

The coefficients kappa_n are not hard-coded.  kappa_0 = 1, and each
kappa_n is the unique solution of the intertwining condition
Psi(x u) = bar(x) Psi(u), x in {E, F}, on the pair module Lambda_(n,n),
solved level by level; conventions in the literature differ by signs
and q-powers, so the solve anchors the convention to the module action
itself and raises ConventionUnderdeterminedError on any ambiguity.

Canonical basis elements are computed by the standard coefficient
recursion (Kazhdan-Lusztig; Lusztig, Introduction to Quantum Groups,
ch. 27).  The level's Psi matrix a_{s,t}, the coefficient of v_s in
Psi(v_t), is built once from the memoized Psi columns, and each column
is checked to be unitriangular: a_{t,t} = 1 and the support lies in the
lower closure of t.  Then b_r = sum_s p_{s,r} v_s with p_{r,r} = 1, and
walking s downward in the linear extension, p_{s,r} is the strictly
negative-exponent half of the obstruction

    g_s = sum_{s < t <= r} a_{s,t} bar(p_{t,r}),

the unique member of q^-1 Z[q^-1] with p_{s,r} - bar(p_{s,r}) = g_s.
Each g_s is accumulated as a raw map from half-exponents to integers,
one multiply-add per pair of terms, and becomes a Laurent element only
when s is reached.  Each nonzero g_s is checked to sit strictly below r
in the closure order, to be bar-antisymmetric and to have zero constant
term; with the column check, Psi(b_r) = b_r holds exactly by
construction.  Both closure tests compare prefix sums computed once per
index of the level (orbits.prefix_sums), and an entry at an index off
the level fails the column check.  The off-diagonal coefficients land
in q^-1 Z_{>=0}[q^-1] (a checked property, not an input).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import defaultdict
from dataclasses import dataclass

from . import orbits
from .errors import (
    AlgebraError,
    ConventionUnderdeterminedError,
    EmbeddingCheckFailedError,
    NonzeroConstantTermError,
    ObstructionNotAntisymmetricError,
    TriangularityViolationError,
)
from .modules import (
    ModuleVector,
    LinMap,
    _gram,
    _step_scalar,
    act_E,
    act_F,
    act_K,
    enumerate_basis,
    format_index,
    gram_entry,
    inner_product,
    render_terms,
    tensor,
    theta,
)
from .qring import (
    Laurent,
    ONE,
    ZERO,
    exact_div,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)

__all__ = [
    "compute_quasi_r",
    "bar_involution",
    "CanonicalTable",
    "canonical_basis",
    "canonical_coords",
    "SplitTable",
    "split_expand",
    "embed_refine",
    "CACHE_FORMAT_VERSION",
    "clear_caches",
]

Composition = orbits.Composition
OrbitIndex = orbits.OrbitIndex

CACHE_FORMAT_VERSION = 2

# Solved quasi-R coefficients, kappa_0 first.  Extended on demand and
# otherwise only truncated back to [ONE] by clear_caches.
_KAPPA: list[Laurent] = [ONE]

# Per-process results for the solved coefficients, keyed by
# (kind, *args): ("psi", d, cut, idx) -> Psi(v_idx), ("table", d, r) ->
# CanonicalTable, ("embed", d) -> LinMap, and ("pair", d1, d2, sign) ->
# RMap (filled by rmatrix).  Emptied, with _KAPPA, by clear_caches.
_MEMO: dict[tuple, object] = {}


# The memoized constants of qring and modules, held here as the cached
# functions themselves so clear_caches reaches them whatever later
# rebinds the module attributes.
_CONSTANT_MEMOS = (
    quantum_integer,
    quantum_factorial,
    quantum_binomial,
    _gram,
    _step_scalar,
    orbits._orbit_dim,
    orbits._linear_extension,
)


def clear_caches() -> None:
    """Forget every per-process result: memoized Psi images, canonical
    tables, embeddings, pair braidings, the solved quasi-R coefficients,
    the quantum integers, factorials and binomials, the Gram entries,
    the E/F step scalars, the orbit dimensions and the linear
    extensions.  The disk cache is not touched."""
    _MEMO.clear()
    del _KAPPA[1:]
    for memo in _CONSTANT_MEMOS:
        memo.cache_clear()


# -- the quasi-R coefficients ----------------------------------------------------


def _psi_basis(
    d: Composition, idx: OrbitIndex, kappa: list[Laurent], cut: int, memo_ok: bool
) -> ModuleVector:
    if len(d) == 1:
        return ModuleVector.basis(d, idx)
    key = ("psi", d, cut, idx)
    if memo_ok:
        cached = _MEMO.get(key)
        if cached is not None:
            return cached
    left = _psi_vector(
        ModuleVector.basis(d[:cut], idx[:cut]), kappa, 1, memo_ok
    )
    right = _psi_vector(
        ModuleVector.basis(d[cut:], idx[cut:]), kappa, 1, memo_ok
    )
    out = theta(tensor(left, right), cut, kappa)
    if memo_ok:
        _MEMO[key] = out
    return out


def _psi_vector(
    u: ModuleVector, kappa: list[Laurent], cut: int, memo_ok: bool
) -> ModuleVector:
    out = ModuleVector.zero(u.d)
    for idx, c in u._terms.items():
        out = out + _psi_basis(u.d, idx, kappa, cut, memo_ok).scale(c.bar())
    return out


def _solve_next_kappa() -> None:
    """Determine kappa_n for n = len(_KAPPA) from the intertwining
    condition on Lambda_(n,n).  Psi depends affinely on the unknown, so
    two evaluations (kappa_n = 0 and kappa_n = 1) give every linear
    equation; the first equation with a unit coefficient pins the value
    and all remaining equations must agree."""
    n = len(_KAPPA)
    d = (n, n)
    trial0 = _KAPPA + [ZERO]
    trial1 = _KAPPA + [ONE]

    basis = [idx for level in range(2 * n + 1) for idx in enumerate_basis(d, level)]
    # Psi under each trial, one column per basis vector, built once:
    # Psi(x) = sum_s bar(x_s) Psi(v_s) is the column map applied to bar(x)
    psi0, psi1 = (
        LinMap(d, d, {idx: _psi_basis(d, idx, trial, 1, False) for idx in basis})
        for trial in (trial0, trial1)
    )
    equations: list[tuple[Laurent, Laurent]] = []
    for idx in basis:
        for op in (act_F, act_E):
            xu_bar = op(ModuleVector.basis(d, idx)).map_coefficients(Laurent.bar)
            zero_part = psi0.apply(xu_bar) - op(psi0.columns[idx])
            slope = (psi1.apply(xu_bar) - op(psi1.columns[idx])) - zero_part
            for s in zero_part.support() | slope.support():
                equations.append((slope.coeff(s), -zero_part.coeff(s)))

    value: Laurent | None = None
    for a, b in equations:
        if len(list(a.items())) == 1 and abs(list(a.items())[0][1]) == 1:
            value = exact_div(b, a)
            break
    if value is None:
        raise ConventionUnderdeterminedError(
            f"no unit-coefficient equation determines kappa_{n}"
        )
    for a, b in equations:
        if value * a != b:
            raise ConventionUnderdeterminedError(
                f"inconsistent equations for kappa_{n}: ({a}) k = ({b}) vs k = {value}"
            )
    if not value.is_in_a():
        raise ConventionUnderdeterminedError(
            f"kappa_{n} = {value} escaped Z[q, q^-1]"
        )
    _KAPPA.append(value)


def compute_quasi_r(n_max: int) -> list[Laurent]:
    """kappa_0 .. kappa_(n_max); kappa_0 = 1 and the rest are solved
    once and cached for the process."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    while len(_KAPPA) <= n_max:
        _solve_next_kappa()
    return list(_KAPPA[: n_max + 1])


# -- the bar involution -----------------------------------------------------------


def bar_involution(
    u: ModuleVector,
    *,
    cut: int = 1,
    kappa: list[Laurent] | None = None,
) -> ModuleVector:
    """Psi(u).  cut chooses where the top-level Theta splits the slots
    (the result is nesting independent for the solved coefficients);
    kappa overrides the solved coefficients, for fault injection in
    tests, and bypasses all memoization."""
    l = len(u.d)
    if l > 1 and not 1 <= cut < l:
        raise ValueError(f"cut {cut} out of range for {l} slots")
    memo_ok = kappa is None
    if kappa is None:
        kappa = compute_quasi_r(sum(u.d) // 2)
    return _psi_vector(u, kappa, cut if l > 1 else 1, memo_ok)


# -- canonical bases ----------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class CanonicalTable:
    """For fixed (d, r): b_idx = v_idx + sum over lower s of c_{idx,s} v_s.

    rows maps each index to the full standard-basis expansion of b_idx,
    in the linear-extension order of `order`.
    """

    d: Composition
    r: int
    order: tuple[OrbitIndex, ...]
    rows: dict[OrbitIndex, ModuleVector]

    def coefficient(self, r_idx: OrbitIndex, s_idx: OrbitIndex) -> Laurent:
        return self.rows[tuple(r_idx)].coeff(s_idx)

    def to_json_obj(self) -> dict:
        return {
            "d": list(self.d),
            "r": self.r,
            "rows": [
                {
                    "r_index": list(idx),
                    "terms": self.rows[idx].to_json_obj()["terms"],
                }
                for idx in self.order
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CanonicalTable":
        d = tuple(obj["d"])
        r = obj["r"]
        order = tuple(tuple(row["r_index"]) for row in obj["rows"])
        rows = {
            tuple(row["r_index"]): ModuleVector.from_json_obj(
                {"d": obj["d"], "terms": row["terms"]}
            )
            for row in obj["rows"]
        }
        return cls(d, r, order, rows)

    def render(self) -> str:
        lines = [f"canonical basis d={format_index(self.d)} r={self.r}"]
        for idx in self.order:
            lines.append(f"b{format_index(idx)} = {self.rows[idx]}")
        return "\n".join(lines) + "\n"


def _psi_below(
    d: Composition,
    t: OrbitIndex,
    kappa: list[Laurent],
    memo_ok: bool,
    prefix: dict[OrbitIndex, tuple[int, ...]],
) -> dict[OrbitIndex, Laurent]:
    """Column t of the Psi matrix without its diagonal entry, after
    checking that the column is unitriangular: a_{t,t} = 1 and every
    other entry lies strictly below t in the closure order.  prefix maps
    each index of the level to its prefix sums."""
    column = dict(_psi_basis(d, t, kappa, 1, memo_ok)._terms)
    diagonal = column.pop(t, ZERO)
    if diagonal != ONE:
        raise TriangularityViolationError(
            f"Psi(v{t}) on Lambda_{d} has diagonal coefficient {diagonal}, not 1"
        )
    top = prefix[t]
    for s in column:
        sums = prefix.get(s)
        if sums is None:
            raise TriangularityViolationError(
                f"Psi(v{t}) on Lambda_{d} is supported at {s}, "
                f"off level {sum(t)}"
            )
        if not orbits.prefix_dominates(sums, top):
            raise TriangularityViolationError(
                f"Psi(v{t}) on Lambda_{d} is supported at {s}, "
                f"outside the lower closure"
            )
    return column


def _compute_table(
    d: Composition, r: int, kappa: list[Laurent] | None
) -> CanonicalTable:
    order = tuple(orbits.linear_extension(d, r))
    memo_ok = kappa is None
    if kappa is None:
        kappa = compute_quasi_r(sum(d) // 2)
    # the closure tests compare prefix sums computed once per index,
    # which also tells an index of this level from any other
    prefix = {idx: orbits.prefix_sums(idx) for idx in order}
    below = {t: _psi_below(d, t, kappa, memo_ok, prefix) for t in order}
    rows: dict[OrbitIndex, ModuleVector] = {}
    for top, r_idx in enumerate(order):
        coeffs = {r_idx: ONE}
        top_sums = prefix[r_idx]
        # obstruction[s] is the raw sum {half-exponent: coefficient} of
        # a_{s,t} bar(p_{t,r}) over the t already solved; every t above
        # s is solved before s is reached.  Products are accumulated
        # term by term, and a Laurent is built only when s is popped.
        obstruction = {
            s: defaultdict(int, a._terms) for s, a in below[r_idx].items()
        }
        for s in reversed(order[:top]):
            raw = obstruction.pop(s, None)
            if raw is None:
                continue
            g = Laurent(raw)
            if g.is_zero():
                continue
            if not orbits.prefix_dominates(prefix[s], top_sums):
                raise TriangularityViolationError(
                    f"obstruction for b{s} vs {r_idx} on Lambda_{d} "
                    f"is supported outside the strict lower closure"
                )
            if not g.is_bar_antisymmetric():
                raise ObstructionNotAntisymmetricError(
                    f"obstruction ({g}) at {s} for b{r_idx} on Lambda_{d}"
                )
            if not g.has_zero_constant_term():
                raise NonzeroConstantTermError(
                    f"obstruction ({g}) at {s} for b{r_idx} on Lambda_{d}"
                )
            p = g.negative_half()
            coeffs[s] = p
            p_bar = [(-h, c) for h, c in p._terms.items()]
            for u, a in below[s].items():
                acc = obstruction.get(u)
                if acc is None:
                    acc = obstruction[u] = defaultdict(int)
                for h1, c1 in a._terms.items():
                    for h2, c2 in p_bar:
                        acc[h1 + h2] += c1 * c2
        rows[r_idx] = ModuleVector._make(d, coeffs)
    return CanonicalTable(d, r, order, rows)


def _cache_path(cache_dir: str, d: Composition, r: int) -> str:
    name = f"canonical_v{CACHE_FORMAT_VERSION}_d{'-'.join(map(str, d))}_r{r}.json"
    return os.path.join(cache_dir, name)


def _kappa_pairs(d: Composition) -> list[list]:
    """The quasi-R coefficients a table of Lambda_d is solved with, in
    JSON form; a cached table is keyed on them."""
    return [k.to_pairs() for k in compute_quasi_r(sum(d) // 2)]


def _is_canonical(table: CanonicalTable) -> bool:
    """True when table.order is the linear extension and every row is
    v_idx plus terms strictly below idx in the closure order, with
    coefficients in q^-1 Z>=0[q^-1], and is fixed by Psi.  Those
    properties determine the canonical basis, so a table that has them
    all is the table the solve would compute."""
    d = table.d
    if list(table.order) != orbits.linear_extension(d, table.r):
        return False
    prefix = {idx: orbits.prefix_sums(idx) for idx in table.order}
    for idx, row in table.rows.items():
        if row.coeff(idx) != ONE:
            return False
        for s, c in row._terms.items():
            if s == idx:
                continue
            sums = prefix.get(s)
            if sums is None or not orbits.prefix_dominates(sums, prefix[idx]):
                return False
            if not c.is_in_qinv_z_nonneg():
                return False
        if bar_involution(row) != row:
            return False
    return True


def _cache_load(cache_dir: str, d: Composition, r: int) -> CanonicalTable | None:
    """The cached table of (d, r), or None when the file is missing,
    unreadable, of another format version or kappa convention, or holds
    a table that fails _is_canonical."""
    try:
        with open(_cache_path(cache_dir, d, r), "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or obj.get("version") != CACHE_FORMAT_VERSION:
            return None
        if tuple(obj.get("d", ())) != d or obj.get("r") != r:
            return None
        if obj.get("kappa") != _kappa_pairs(d):
            return None
        table = CanonicalTable.from_json_obj(obj)
    except (OSError, ValueError, KeyError, TypeError, AlgebraError):
        return None
    return table if _is_canonical(table) else None


def _cache_store(cache_dir: str, table: CanonicalTable) -> None:
    obj = {
        "version": CACHE_FORMAT_VERSION,
        "kappa": _kappa_pairs(table.d),
        **table.to_json_obj(),
    }
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, _cache_path(cache_dir, table.d, table.r))
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def canonical_basis(
    d: Composition,
    r: int,
    *,
    cache_dir: str | None = None,
    kappa: list[Laurent] | None = None,
) -> CanonicalTable:
    """The canonical basis table of Lambda_d at level r.

    Results are memoized per process; cache_dir adds an advisory disk
    cache, keyed on the format version and the quasi-R coefficients.
    Every loaded table is checked (see _is_canonical); an unreadable,
    mismatched or failing file is recomputed and rewritten.
    A kappa override disables every cache, so injected faults cannot
    poison real tables.
    """
    d = orbits.check_composition(d)
    if not 0 <= r <= sum(d):
        raise ValueError(f"level {r} out of range for {d}")
    if kappa is not None:
        return _compute_table(d, r, kappa)
    key = ("table", d, r)
    table = _MEMO.get(key)
    if table is not None:
        return table
    if cache_dir is not None:
        table = _cache_load(cache_dir, d, r)
        if table is not None:
            _MEMO[key] = table
            return table
    table = _compute_table(d, r, None)
    _MEMO[key] = table
    if cache_dir is not None:
        _cache_store(cache_dir, table)
    return table


def _back_substitute(
    u: ModuleVector,
    order: tuple[OrbitIndex, ...],
    rows: dict[OrbitIndex, ModuleVector],
) -> dict[OrbitIndex, Laurent] | None:
    """Coordinates of u over the vectors rows[idx], each unitriangular
    along order: peel off coefficients from the top of order down.
    Zeros are omitted; None when a remainder is left over."""
    remainder = u
    coords: dict[OrbitIndex, Laurent] = {}
    for idx in reversed(order):
        c = remainder.coeff(idx)
        if not c.is_zero():
            coords[idx] = c
            remainder = remainder - rows[idx].scale(c)
    return coords if remainder.is_zero() else None


def canonical_coords(
    table: CanonicalTable, u: ModuleVector
) -> list[tuple[OrbitIndex, Laurent]]:
    """Expand u over the canonical basis of its level by unitriangular
    back-substitution; returns (index, coefficient) pairs in the table
    order, zeros omitted."""
    coords = _back_substitute(u, table.order, table.rows)
    if coords is None:
        raise TriangularityViolationError(
            f"vector over Lambda_{u.d} escaped the level-{table.r} table"
        )
    return [(idx, coords[idx]) for idx in table.order if idx in coords]


# -- split expansion -----------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class SplitTable:
    """Rows re-express b_r over the product basis b_{s'} tensor b_{s''}
    after cutting the slots at `cut`; keys are full concatenated s."""

    d: Composition
    cut: int
    r: int
    order: tuple[OrbitIndex, ...]
    rows: dict[OrbitIndex, dict[OrbitIndex, Laurent]]

    def to_json_obj(self) -> dict:
        position = {idx: i for i, idx in enumerate(self.order)}
        return {
            "d": list(self.d),
            "cut": self.cut,
            "r": self.r,
            "rows": [
                {
                    "r_index": list(idx),
                    "terms": [
                        {"s_index": list(s), "coeff": c.to_pairs()}
                        for s, c in sorted(
                            self.rows[idx].items(), key=lambda kv: position[kv[0]]
                        )
                    ],
                }
                for idx in self.order
            ],
        }

    def render(self) -> str:
        position = {idx: i for i, idx in enumerate(self.order)}
        lines = [f"split expansion d={format_index(self.d)} cut={self.cut} r={self.r}"]
        for idx in self.order:
            terms = render_terms(
                (c, f"b{format_index(s[: self.cut])}*b{format_index(s[self.cut :])}")
                for s, c in sorted(
                    self.rows[idx].items(), key=lambda kv: -position[kv[0]]
                )
            )
            lines.append(f"b{format_index(idx)} = {terms}")
        return "\n".join(lines) + "\n"


def split_expand(
    d: Composition,
    cut: int,
    r: int,
    *,
    cache_dir: str | None = None,
) -> SplitTable:
    """Expand each b_r of Lambda_d over the tensor products of the two
    canonical bases after the cut.  Unitriangular back-substitution
    against the concatenated-index products; the leading coefficient is
    exactly 1 by construction."""
    d = orbits.check_composition(d)
    if not 1 <= cut < len(d):
        raise ValueError(f"cut {cut} out of range for {len(d)} slots")
    if not 0 <= r <= sum(d):
        raise ValueError(f"level {r} out of range for {d}")
    left_d, right_d = d[:cut], d[cut:]

    table = canonical_basis(d, r, cache_dir=cache_dir)
    products: dict[OrbitIndex, ModuleVector] = {}
    for a in range(max(0, r - sum(right_d)), min(r, sum(left_d)) + 1):
        left_t = canonical_basis(left_d, a, cache_dir=cache_dir)
        right_t = canonical_basis(right_d, r - a, cache_dir=cache_dir)
        for ls in left_t.order:
            for rs in right_t.order:
                products[ls + rs] = tensor(left_t.rows[ls], right_t.rows[rs])

    rows: dict[OrbitIndex, dict[OrbitIndex, Laurent]] = {}
    for idx in table.order:
        coords = _back_substitute(table.rows[idx], table.order, products)
        if coords is None:
            raise TriangularityViolationError(
                f"split of b{idx} on Lambda_{d} escaped the product basis"
            )
        rows[idx] = coords
    return SplitTable(d, cut, r, table.order, rows)


# -- refinement embedding --------------------------------------------------------------


def _assert_embedding(m: LinMap) -> None:
    src, tgt = m.source, m.target
    for idx, image in m.columns.items():
        u = ModuleVector.basis(src, idx)
        for name, op in (("K", act_K), ("E", act_E), ("F", act_F)):
            lhs = m.apply(op(u))
            rhs = op(image)
            if lhs != rhs:
                raise EmbeddingCheckFailedError(
                    f"embedding of Lambda_{src} fails to intertwine {name} at {idx}"
                )
    cols = list(m.columns)
    for i in cols:
        for j in cols:
            lhs = inner_product(m.columns[i], m.columns[j])
            rhs = gram_entry(src, i) if i == j else ZERO
            if lhs != rhs:
                raise EmbeddingCheckFailedError(
                    f"embedding of Lambda_{src} is not an isometry at ({i}, {j})"
                )


def embed_refine(d: Composition, *, cache_dir: str | None = None) -> LinMap:
    """The canonical embedding Lambda_d -> Lambda_(1,...,1) sending each
    b_r to the b at the dense binary refinement of r.  Intertwining and
    isometry are asserted on construction, not assumed."""
    d = orbits.check_composition(d)
    key = ("embed", d)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    total = sum(d)
    if total == 0:
        raise ValueError("refinement of a zero composition has no slots")
    target = (1,) * total
    columns: dict[OrbitIndex, ModuleVector] = {}
    for r in range(total + 1):
        table = canonical_basis(d, r, cache_dir=cache_dir)
        fine = canonical_basis(target, r, cache_dir=cache_dir)
        for idx in table.order:
            image = ModuleVector.zero(target)
            for s, c in canonical_coords(table, ModuleVector.basis(d, idx)):
                image = image + fine.rows[orbits.dense_cell(d, s)].scale(c)
            columns[idx] = image
    m = LinMap(d, target, columns)
    _assert_embedding(m)
    _MEMO[key] = m
    return m
