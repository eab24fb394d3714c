"""Bar involution, canonical bases, split expansion, refinement embedding.

The bar involution Psi on Lambda_d is anti-linear (coefficients are
barred) and fixes every standard basis vector of a single factor.  On a
tensor product, a chosen cut splits the slots into a left and a right
block, and Psi(v_r) is the quasi-R operator
Theta = sum_n kappa_n F^(n) tensor E^(n) applied to Psi of the left
block's part of v_r and Psi of the right block's part.  The recursion
nests left to right by default; coassociativity makes the result
independent of the nesting, which the verification suite checks rather
than assumes.

The coefficients kappa_n are those of Lusztig's quasi-R-matrix
(Introduction to Quantum Groups, ch. 4), in this package's conventions
kappa_n = (-1)^n q^(-n(n-1)/2) (q - q^-1)^n [n]!, and none is trusted
before it is proved.  Conventions in the literature differ by signs and
q-powers, so the convention is anchored to the module action itself:
on the pair module Lambda_(n,n), Theta's n-th term is nonzero only on
v_(0,n), so every other Psi column reads only kappa_k with k < n, and
kappa_n is kept only once Psi(x u) = bar(x) Psi(u), x in {E, F}, holds
on every column of Psi's LinMap.of map there and kappa_n lies in
Z[q, q^-1]; otherwise ConventionUnderdeterminedError is raised and
nothing is kept.  Theta reads kappa_n through _kappa only when its sum
reaches the n-th term, so each Psi column checks kappa exactly as far
as its own Theta goes, and no reach is computed beforehand.  Every Psi
column is built under the checked kappa into the one memo store _MEMO.
No canonical table reads kappa.

Canonical tables are solved one factor at a time from bar-invariant
monomials (Lusztig, Introduction to Quantum Groups, 27.3).  Write
Lambda_d = Lambda_(d_0) tensor Lambda_d'' with d'' = d[1:], and take
the product basis P_s = v_(s_0) tensor b''_(s[1:]) over the canonical
basis b'' of d'' at level r - s_0 (a one-factor table is the standard
basis).  Both bases are unitriangular over one another with
off-diagonal entries in q^-1 Z[q^-1], so the bar-fixed b_t in
P_t + q^-1 Z[q^-1]-span is the canonical basis element.  Theta's
n >= 1 terms vanish on v_(d_0) tensor b''_u, as F^(n) v_(d_0) = 0, and
Psi commutes with divided powers, so for t = (d_0 - a, u) the monomial

    M_t = E^(a) (v_(d_0) tensor b''_u)
        = sum_(a'+b=a) q^(a'b - b d_0) v_(d_0 - a') tensor E^(b) b''_u

(the coproduct below at s_0 = d_0) is bar-invariant.  The solve checks
that M_t is P_t plus terms on the level strictly below t in the closure
order (prefix sums, computed once per index of the level), then peels
it with _peel, the one triangular kernel here: a max-heap pops the
highest position s of the linear extension the remainder holds, whose
coefficient c splits as beta_s + p_{s,t}, with p_{s,t} in q^-1 Z[q^-1]
the product coordinate of b_t and beta_s = c_0 + sum_(h>0) c_h (q^h +
q^-h) bar-invariant; beta_s b_s is subtracted, the heap takes the
positions it adds, and b_t = M_t - sum_s beta_s b_s.  An entry never
reached is a TriangularityViolationError, whose text is formatted only
then.  The solve keeps the product coordinates alone.  The standard
rows are built on the first read of a table's rows, all at once, each
by _expand_row into one dict keyed by the level's own index tuples:
each summand p_s v_(s_0) tensor b''_(s[1:]) is read off the row of the
d'' table at level r - s_0, whose rows (expanded on that read in turn)
and whose map from each d'' index to the level's tuple are read once
per head per table.  The summand of P_t itself comes first and is a
C-level copy of its d'' row, re-keyed in the same pass, never the d''
row's own map.  So only tables whose rows something reads are ever
expanded, and a split reads none.  The row's off-diagonal coefficients
land in q^-1 Z_{>=0}[q^-1], and Psi(b_t) = b_t under the checked
kappa: the verify suite checks both from outside the solve.

The source paper's geometry fixes the shape of the multiplicities
beta_s of b_s in M_t.  Canonical basis elements are simple perverse
sheaves and E^(a) is convolution along a proper map, so by the
decomposition theorem (Beilinson-Bernstein-Deligne) every beta_s lies
in N[q, q^-1], and by purity (Deligne's weights) every exponent of c is
an integer with the parity of dim O_t - dim O_s.  The solve checks both
on every coefficient it walks and raises PurityViolationError.  As
purity leaves few distinct coefficients (5 in the 126 rows of (1,)*9
at level 4), each split c -> (beta_s, p_{s,t}) is kept in _SPLITS,
keyed by c and the parity, once c has passed both tests: a coefficient
met again is split by one lookup, and one that fails is never kept, so
it fails wherever it occurs, with the text of its own row and index.

Every stored coefficient (table rows, product coordinates, E^(n)
coordinates and split rows) is the one shared instance of its value in
_VALUES: the Kazhdan-Lusztig polynomials of the tables are few and
repeat across rows and tables, as do those of the memoized Psi
columns, also shared.  In a row's expansion, the diagonal summand takes
the d'' row's shared entries as they are; any other summand p_s e, with
e an entry of a d'' row, is read from _PRODUCTS, the table of products
of shared values keyed by (p_s, e), and where the index already holds a
value a, the sum a + p_s e is read from _SUMS, the table of sums keyed
by (a, p_s e).  As the values are few (purity), a repeated product or
sum costs one lookup, and no entry is ever summed term by term.  Every
row, split row and Psi column key is the tuple of its level's order in
orbits._level, which is every table's order: one tuple per index, and
every table and split on that order reads the level's position map.

Every solved table keeps its product coordinates p_{s,r} in its
product field, and E^(n) b and split expansions are computed from
them, never from a standard-basis row.  The coproduct
Delta(E) = E tensor 1 + K tensor E gives
Delta(E^(n)) = sum_(a+b=n) q^(ab) E^(a) K^b tensor E^(b), so

    E^(n) P_s = sum_(a+b=n) q^(ab + b(d_0 - 2s_0)) [d_0 - s_0 + a choose a]
                v_(s_0 - a) tensor E^(b) b''_(s[1:]),

with E^(b) b'' read in the canonical coordinates of d'' (memoized per
d'', index and n; on one factor, the binomial [d_0 - t_0 + n choose n]
alone).  _add_e_image builds this sum for the monomials and for
_e_coords, which back-substitutes it against the product coordinates
of the level below, a handful of entries per row: _peel again, keeping
each coefficient c it pops and subtracting c times its row.  A split at
cut 1 is the product coordinates; at a cut c > 1 each b''_(s[1:]) of
b_t is split at c - 1 into b'''_x tensor b''''_y, and the part of b_t
on each b''''_y, a sum of v_(s_0) tensor b'''_x, is back-substituted in
the same way against d[:c] on level r - sum(y).  The standard-basis Psi
columns serve bar_involution and the pair braiding of rmatrix, whose
Theta step is bar Psi.

The refinement embedding comes from the module structure alone: on each
nonzero part it is the intertwiner v_a -> F^(a) v_(0,...,0) into that
many single-box factors, and on Lambda_d the tensor product of these,
one LinMap.of column per standard basis vector.  It reads no canonical
table: that it carries each b_r to the canonical basis element at the
dense refinement of r is a consequence of purity, which the embed suite
of verify checks, not a definition.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import reduce
from heapq import heapify, heappop, heappush

from . import modules, orbits, qring
from .errors import (
    AmbientMismatchError,
    ConventionUnderdeterminedError,
    EmbeddingCheckFailedError,
    PurityViolationError,
    TriangularityViolationError,
)
from .modules import (
    ModuleVector,
    LinMap,
    _JsonParts,
    _Record,
    _accumulate,
    _times,
    _value,
    act_E,
    act_F,
    act_K,
    act_divided,
    combine,
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
    Q,
    QINV,
    ZERO,
    q_power,
    quantum_binomial,
    quantum_factorial,
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
    "clear_caches",
]

Composition = orbits.Composition
OrbitIndex = orbits.OrbitIndex

# Checked quasi-R coefficients, kappa_0 first.  Extended on demand and
# otherwise only truncated back to [ONE] by clear_caches.
_KAPPA: list[Laurent] = [ONE]


# Per-process results, keyed by (kind, *args): ("psi", d, cut, idx) ->
# Psi(v_idx), ("table", d, r) -> CanonicalTable (with its product
# coordinates when len(d) > 1), ("E", d, idx, n) -> the canonical
# coordinates of E^(n) b_idx (len(d) > 1; d and idx are the tuples of
# the table of (d, sum(idx))), and ("pair", d1, d2, sign)
# -> LinMap (filled by rmatrix).  Each kind is read and written only by
# the function that computes it.
_MEMO: dict[tuple, object] = {}

# The tables that keep each stored coefficient value once: _VALUES maps
# a coefficient to the one shared instance of its value, _PRODUCTS maps
# a pair (c, e) to the shared value of c * e, and _SUMS a pair (a, c) to
# the shared value of a + c.  All three are keyed by value, not by id,
# so no entry can be mistaken for another after its operands are gone.
# _SPLITS maps a coefficient the solve pops and the parity its exponents
# must have, (c, parity), to the shared pair (beta, p) of its split
# c = beta + p, kept only once c has passed the purity and positivity
# tests.  They intern values only; results live in _MEMO.  clear_caches
# empties all five, with _KAPPA.
_VALUES: dict[Laurent, Laurent] = {}
_PRODUCTS: dict[tuple[Laurent, Laurent], Laurent] = {}
_SUMS: dict[tuple[Laurent, Laurent], Laurent] = {}
_SPLITS: dict[tuple[Laurent, int], tuple[Laurent, Laurent]] = {}

# The memoized constants of qring, orbits and modules: each module's
# _MEMOS, the cached functions themselves, so clear_caches reaches them
# whatever later rebinds a module attribute.
_CONSTANT_MEMOS = (*qring._MEMOS, *orbits._MEMOS, *modules._MEMOS)


def clear_caches() -> None:
    """Forget every per-process result: memoized Psi images, canonical
    tables with their product coordinates, E^(n) coordinates, pair
    braidings (_MEMO), the shared coefficient values (_VALUES), their
    products (_PRODUCTS) and sums (_SUMS), the splits of the solve's
    coefficients (_SPLITS), the checked quasi-R coefficients, and the
    constant memos of qring, orbits and modules: the quantum integers,
    factorials and binomials, the Gram entries, the E/F step scalars,
    the basis index sets and orbits._level, the one memo of each level's
    order, dimensions and positions, which tables and splits share."""
    for store in (_MEMO, _VALUES, _PRODUCTS, _SUMS, _SPLITS):
        store.clear()
    del _KAPPA[1:]
    for memo in _CONSTANT_MEMOS:
        memo.cache_clear()


# -- the quasi-R coefficients ----------------------------------------------------


def _psi_basis(d: Composition, idx: OrbitIndex, cut: int) -> ModuleVector:
    """Psi(v_idx) with the top-level Theta at cut, memoized in _MEMO,
    each key its level's own tuple in orbits._level and each
    coefficient the shared instance of its value in _VALUES.
    Theta reads each kappa_n through _kappa as its sum reaches it, so
    kappa is checked as far as this column's Theta goes, and no
    further."""
    if len(d) == 1:
        return ModuleVector.basis(d, idx)
    key = ("psi", d, cut, idx)
    out = _MEMO.get(key)
    if out is None:
        left = _psi_basis(d[:cut], idx[:cut], 1)
        right = _psi_basis(d[cut:], idx[cut:], 1)
        column = theta(left, right, _kappa)._terms.items()
        order, _, position = orbits._level(d, sum(idx))
        out = _MEMO[key] = ModuleVector._make(
            d, {order[position[i]]: _shared(c) for i, c in column}
        )
    return out


def _extend_kappa() -> None:
    """Append kappa_n for n = len(_KAPPA), the closed form
    kappa_n = (-1)^n q^(-n(n-1)/2) (q - q^-1)^n [n]! of Lusztig's
    quasi-R-matrix, once Psi under it intertwines on Lambda_(n,n).

    Theta's n-th term F^(n) v_a tensor E^(n) v_b vanishes unless a = 0
    and b = n, so kappa_n enters Psi on Lambda_(n,n) only through the
    column of v_(0,n).  Psi is LinMap.of((n, n), column): every other
    column reads only kappa_0 .. kappa_(n-1) and is the memoized Psi
    column, and that of v_(0,n) is Theta under the new value, outside
    _MEMO.  Psi(x u) = x Psi(u), x in {E, F} (both bar-invariant), must
    then hold on every column before the value is kept."""
    n = len(_KAPPA)
    value = (QINV - Q) ** n * q_power(-n * (n - 1) // 2) * quantum_factorial(n)
    d = (n, n)
    v0, vn = ModuleVector.basis((n,), (0,)), ModuleVector.basis((n,), (n,))

    def column(u: ModuleVector) -> ModuleVector:
        ((idx, _),) = u.unordered_items()
        if idx == (0, n):
            return theta(v0, vn, lambda k: value if k == n else _KAPPA[k])
        return _psi_basis(d, idx, 1)

    psi = LinMap.of(d, column)
    # Psi(x v_idx) = sum_s bar(x_s) Psi(v_s) is the column map applied
    # to bar(x v_idx)
    for idx, image in psi.columns.items():
        u = ModuleVector.basis(d, idx)
        for name, op in (("F", act_F), ("E", act_E)):
            if psi.apply(op(u).map_coefficients(Laurent.bar)) != op(image):
                raise ConventionUnderdeterminedError(
                    f"kappa_{n} = {value} fails Psi {name} = {name} Psi at {idx} "
                    f"on Lambda_{d}"
                )
    if not value.is_in_a():
        raise ConventionUnderdeterminedError(
            f"kappa_{n} = {value} escaped Z[q, q^-1]"
        )
    _KAPPA.append(value)


def _kappa(n: int) -> Laurent:
    """kappa_n, checking and appending the missing coefficients through
    n in order: the read of every Psi column's Theta.  Psi does not read
    through compute_quasi_r, as the check builds Psi columns and would
    nest that function inside itself; perfbench's tracer sums its
    inclusive time on the assumption that it never nests."""
    while len(_KAPPA) <= n:
        _extend_kappa()
    return _KAPPA[n]


def compute_quasi_r(n_max: int) -> list[Laurent]:
    """kappa_0 .. kappa_(n_max); kappa_0 = 1 and the rest come from the
    closed form, each checked once against the Psi columns of
    Lambda_(n,n) and cached for the process.  No canonical table reads
    kappa, and Psi reads it term by term through _kappa."""
    if type(n_max) is not int or n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [_kappa(n) for n in range(n_max + 1)]


# -- the bar involution -----------------------------------------------------------


def bar_involution(u: ModuleVector, *, cut: int = 1) -> ModuleVector:
    """Psi(u) = sum bar(c) Psi(v_idx) over the terms c v_idx of u, from
    the memoized columns, each built under the checked coefficients as
    far as it reads them.  cut chooses where the top-level Theta splits
    the slots (the result is nesting independent).  The sum is combine's,
    so a single term is its column scaled, the column itself for a unit
    coefficient (vectors are immutable)."""
    l = len(u.d)
    # one factor has no split: only the default cut 1 is accepted
    if type(cut) is not int or not 1 <= cut < max(l, 2):
        raise ValueError(f"cut {cut!r} out of range for {l} slots")
    return combine(
        u.d, ((c.bar(), _psi_basis(u.d, idx, cut)) for idx, c in u._terms.items())
    )


# -- canonical bases ----------------------------------------------------------------


def _rows_json(table, header: dict, key: str, terms: Callable) -> dict:
    """header with "rows": [{"r_index", "terms": [{key, "coeff"}, ...]},
    ...], the rows in table.order and the terms of terms(idx), a term
    map, by ascending position in table._position.  Equal coefficients,
    indices and terms share one sub-object, so the document is
    read-only: copy.deepcopy it before mutating."""
    position, parts, rows = table._position, _JsonParts(key), []
    for idx in table.order:
        row = sorted(terms(idx).items(), key=lambda kv: position[kv[0]])
        rows.append({"r_index": parts.index(idx), "terms": parts.terms(row)})
    return {**header, "rows": rows}


def _rows_text(table, header: str, terms: Callable, label: Callable) -> str:
    """header, then one line `b(idx) = ...` per row in table.order: the
    terms of terms(idx) as label(s, format_index(s)), by descending
    position in table._position, as str(vector) prints them.  Each index,
    each label and each distinct coefficient is formatted once per call."""
    position, names = table._position, {s: format_index(s) for s in table.order}
    labels = {s: label(s, name) for s, name in names.items()}
    texts, lines = {}, [header]
    for idx in table.order:
        row = sorted(terms(idx).items(), key=lambda kv: position[kv[0]], reverse=True)
        text = render_terms(((c, labels[s]) for s, c in row), texts)
        lines.append(f"b{names[idx]} = {text}")
    return "\n".join(lines) + "\n"


def _position_of(
    d: Composition, r: int, order: tuple[OrbitIndex, ...]
) -> dict[OrbitIndex, int]:
    """Each index's position in a record's order: the position map of
    orbits._level when order is the level's order, as on every record
    the package builds and on copies and pickles of one, else a map
    built from order alone."""
    level, _, position = orbits._level(d, r)
    if order == level:
        return position
    return {idx: i for i, idx in enumerate(order)}


class CanonicalTable(_Record):
    """For fixed (d, r): b_idx = v_idx + sum over lower s of c_{idx,s} v_s.

    rows maps each index to the full standard-basis expansion of b_idx,
    in the linear-extension order of `order`.  For len(d) > 1, product
    maps each index t, in that order, to the coordinates {s: p_{s,t}}
    of b_t over the product basis P_s of the solve; it is None for one
    factor and takes no part in equality or repr, nor does
    _position, each index's position in `order` (_position_of: the
    level's own map when `order` is the level's order), read by the
    solve and by the row writers _rows_json and _rows_text.

    Given rows None, the table keeps only its product coordinates, and
    the first read of rows builds every row by _expand_rows (the
    standard basis for one factor) and keeps them as a plain dict, so
    that every later read, equality, repr, copy and pickle sees the
    table as if built from explicit rows.
    """

    __slots__ = ("d", "r", "order", "rows", "product", "_position")
    _compared = ("d", "r", "order", "rows")

    def __init__(
        self,
        d: Composition,
        r: int,
        order: tuple[OrbitIndex, ...],
        rows: dict[OrbitIndex, ModuleVector] | None,
        product: dict | None = None,
    ):
        position = _position_of(d, r, order)
        self._set(d=d, r=r, order=order, product=product, _position=position)
        if rows is not None:
            self._set(rows=rows)

    def __getattr__(self, name):
        # reached only for an unset slot: rows before its first read
        if name != "rows":
            raise AttributeError(name)
        rows = _expand_rows(self)
        self._set(rows=rows)
        return rows

    def coefficient(self, r_idx: OrbitIndex, s_idx: OrbitIndex) -> Laurent:
        """c_{r,s}; a ValueError when either index is off the level.  A
        table with product coordinates reads the entry through them by
        _entry, building no row; one without (one factor, or explicit
        rows) reads its rows."""
        t, s = tuple(r_idx), tuple(s_idx)
        for idx in (t, s):
            if idx not in self._position:
                raise ValueError(
                    f"index {idx} is not on level {self.r} of Lambda_{self.d}"
                )
        if self.product is None:
            return self.rows[t].coeff(s)
        return _entry(self.d, self.r, self.product[t], s)

    def to_json_obj(self) -> dict:
        """{"d", "r", "rows": [{"r_index", "terms": [{"r", "coeff"},
        ...]}, ...]} by _rows_json; read-only, equal values share one object."""
        header = {"d": list(self.d), "r": self.r}
        return _rows_json(self, header, "r", lambda idx: self.rows[idx]._terms)

    def render(self) -> str:
        """The table as text, one row per line as str(row) prints it."""
        header = f"canonical basis d={format_index(self.d)} r={self.r}"
        return _rows_text(
            self, header, lambda idx: self.rows[idx]._terms, lambda s, name: f"v{name}"
        )


def _shared(c: Laurent) -> Laurent:
    """The shared instance of c's value in _VALUES, c itself on a miss."""
    return _VALUES.setdefault(c, c)


def _expand_row(
    coeffs: dict[OrbitIndex, Laurent], heads: dict[int, tuple[dict, dict]]
) -> dict[OrbitIndex, Laurent]:
    """The standard-basis terms of b_t = sum_s p_s v_(s_0) tensor
    b''_(s[1:]), from its product coordinates coeffs = {s: p_s}, in one
    dict keyed by the level's own tuples.  heads[x] is the row map of
    the d'' table at level r - x and a map from each index w of that
    table to the level's own tuple (x,) + w.  A first summand with
    coefficient 1 (the diagonal P_t) is its d'' row's term map, copied
    and re-keyed in one pass, never that map itself.  Every further
    summand adds p e for each entry e of its d'' row, read from
    _PRODUCTS; where the index already holds a, a + p e is read from
    _SUMS, and an entry that cancels is dropped.  Both tables are keyed
    by value, so every coefficient is a shared value.  It keeps a loop
    of its own, not _accumulate's, as its summands are read from those
    tables."""
    data: dict[OrbitIndex, Laurent] = {}
    for s, p in coeffs.items():
        rows, keys = heads[s[0]]
        terms = rows[s[1:]]._terms
        if not data and p._terms == ONE._terms:
            data = dict(zip(map(keys.__getitem__, terms), terms.values()))
            continue
        for w, e in terms.items():
            pe = _PRODUCTS.get((p, e))
            if pe is None:
                pe = _PRODUCTS[p, e] = _shared(_times(p, e))
            idx = keys[w]
            a = data.get(idx)
            if a is None:
                data[idx] = pe
                continue
            total = _SUMS.get((a, pe))
            if total is None:
                total = _SUMS[a, pe] = _shared(a + pe)
            if total._terms:
                data[idx] = total
            else:
                del data[idx]
    return data


def _entry(
    d: Composition, r: int, coords: dict[OrbitIndex, Laurent], s: OrbitIndex
) -> Laurent:
    """The coefficient of v_s in b_t on level r of Lambda_d, from the
    product coordinates coords = {u: p_u} of b_t:
    c_(t,s) = sum over u with u_0 = s_0 of p_u c''_(u[1:], s[1:]), each
    c'' read the same way from the solved d'' table at level r - s_0,
    down to the Kronecker delta on one factor.  No row is read."""
    rest, s0, x = d[1:], s[0], s[1:]
    lower = _sub_table(rest, r - s0).product if len(rest) > 1 else None
    out = ZERO
    for u, p in coords.items():
        if u[0] != s0:
            continue
        if lower is not None:
            out = out + p * _entry(rest, r - s0, lower[u[1:]], x)
        elif u[1:] == x:
            out = out + p
    return out


def _add_e_image(
    image: dict, d: Composition, s: OrbitIndex, p: Laurent, n: int
) -> None:
    """image += p E^(n) P_s in the product basis of level sum(s) - n, by
    the coproduct formula of the module docstring, for image an
    _accumulate dict."""
    d0, s0, rest = d[0], s[0], s[1:]
    for a in range(min(n, s0) + 1):
        b = n - a
        part = {rest: ONE} if b == 0 else _e_coords(d[1:], rest, b)
        if part:
            shift = q_power(a * b + b * (d0 - 2 * s0))
            scalar = _times(p, shift, quantum_binomial(d0 - s0 + a, a))
            for w, e in part.items():
                _accumulate(image, (s0 - a,) + w, scalar, e)


def _e_coords(d: Composition, t: OrbitIndex, n: int) -> dict[OrbitIndex, Laurent]:
    """E^(n) b_t on Lambda_d in the canonical coordinates of level
    sum(t) - n, zeros omitted; empty when E^(n) b_t = 0.  One factor
    is the standard basis, E^(n) v_t0 = [d_0 - t_0 + n choose n]
    v_(t_0 - n).  Otherwise E^(n) is applied to b_t = sum_s p_{s,t} P_s
    term by term by _add_e_image and back-substituted against the
    product coordinates of the level below.  Memoized in _MEMO for
    len(d) > 1, under the key ("E", d, t, n) of the table's own d and
    order tuple, so no key keeps a slice of its caller's."""
    d0, t0 = d[0], t[0]
    if len(d) == 1:
        return {(t0 - n,): quantum_binomial(d0 - t0 + n, n)} if n <= t0 else {}
    coords = _MEMO.get(("E", d, t, n))
    if coords is None:
        r = sum(t)
        table = _sub_table(d, r)
        image: dict = {}
        for s, p in table.product[t].items():
            _add_e_image(image, d, s, p, n)
        coords = {}
        if image:
            lower = _sub_table(d, r - n)
            coords = _back_substitute(
                image, lower, lower.product.get, lambda: f"E^({n}) b{t}"
            )
            coords = {u: _shared(c) for u, c in coords.items()}
        _MEMO["E", table.d, table.order[table._position[t]], n] = coords
    return coords


def _monomial(
    d: Composition, t: OrbitIndex, prefix: dict[OrbitIndex, tuple[int, ...]]
) -> dict:
    """M_t = E^(d_0 - t_0) (v_(d_0) tensor b''_(t[1:])) without its entry
    at t, as an _accumulate dict over the product basis, after
    checking that the entry at t is 1 and every other entry lies on the
    level strictly below t in the closure order, by prefix, the prefix
    sums of each index of the level."""
    image: dict = {}
    _add_e_image(image, d, (d[0],) + t[1:], ONE, d[0] - t[0])
    lead = _value(image.pop(t, ZERO))
    if lead != ONE:
        raise TriangularityViolationError(
            f"the monomial of b{t} on Lambda_{d} has leading coefficient "
            f"{lead} at {t}, not 1"
        )
    top = prefix[t]
    for s in image:
        sums = prefix.get(s)
        if sums is None or not orbits.prefix_dominates(sums, top):
            where = (
                f"off level {sum(t)}" if sums is None else "outside the lower closure"
            )
            raise TriangularityViolationError(
                f"the monomial of b{t} on Lambda_{d} is supported at {s}, {where}"
            )
    return image


def _peel(
    remainder: dict,
    table: CanonicalTable,
    top: int,
    row: Callable[[OrbitIndex], Mapping[OrbitIndex, Laurent]],
    split: Callable[[OrbitIndex, Laurent], Laurent],
    leftover: Callable[[], str],
) -> None:
    """Peel remainder, an _accumulate dict, down the unitriangular
    rows row(idx) of table: a max-heap pops its highest position below
    top, subtracts split(idx, c) row(idx) for a nonzero coefficient c,
    drops what that puts back at idx and pushes the keys it adds below.
    A nonzero entry never reached raises TriangularityViolationError:
    the text leftover() returns, then the index.  leftover is called
    only then, so a walk that leaves nothing formats no text."""
    order, position = table.order, table._position
    heap = [-i for i in map(position.get, remainder) if i is not None and i < top]
    heapify(heap)
    while heap:
        i = -heappop(heap)
        idx = order[i]
        c = _value(remainder.pop(idx))
        x = split(idx, c) if c._terms else c
        if x._terms:
            x = -x
            for w, e in row(idx).items():
                j = position.get(w, i)
                if j < i and w not in remainder:
                    heappush(heap, -j)
                _accumulate(remainder, w, x, e)
            remainder.pop(idx, None)
    for idx, raw in remainder.items():
        if _value(raw)._terms:
            raise TriangularityViolationError(f"{leftover()}{idx}")


def _expand_rows(table: CanonicalTable) -> dict[OrbitIndex, ModuleVector]:
    """Every row of table in the standard basis: for one factor the
    standard basis itself, otherwise each row by _expand_row, whose heads
    hold the rows of the d'' table at level r - x of each head x (read,
    and so expanded, once for the table) and a map from each d'' index w
    to this level's own tuple (x,) + w."""
    d, r, order, position = table.d, table.r, table.order, table._position
    if table.product is None:
        return {idx: ModuleVector._make(d, {idx: ONE}) for idx in order}
    heads: dict[int, tuple[dict, dict]] = {}
    for x in dict.fromkeys(idx[0] for idx in order):
        rows = _sub_table(d[1:], r - x).rows
        heads[x] = (rows, {w: order[position[(x,) + w]] for w in rows})
    return {
        t: ModuleVector._make(d, _expand_row(coeffs, heads))
        for t, coeffs in table.product.items()
    }


def _sub_table(d: Composition, r: int) -> CanonicalTable:
    """The table of (d, r) from _MEMO, solved into it on a miss as its
    product coordinates alone, from the monomials of _monomial, reading
    no kappa; the factor tables and the E^(n) coordinates come from
    _MEMO, and every stored coefficient is shared through _VALUES.  The
    standard rows are left to the table's first read of rows
    (_expand_rows).  Each popped coefficient is split through _SPLITS,
    so the purity and positivity tests run once per value and parity.
    The table is stored only after its last row, so a solve that raises
    leaves nothing in _MEMO."""
    key = ("table", d, r)
    table = _MEMO.get(key)
    if table is not None:
        return table
    order, dims, _ = orbits._level(d, r)
    if len(d) == 1:
        table = _MEMO[key] = CanonicalTable(d, r, order, None)
        return table
    # every diagonal entry is ONE, so ONE is the shared 1 of _VALUES
    _VALUES.setdefault(ONE, ONE)
    # the closure tests compare prefix sums computed once per index,
    # which also tells an index of this level from any other
    prefix = {idx: orbits.prefix_sums(idx) for idx in order}
    table = CanonicalTable(d, r, order, None, {})  # _peel reads only rows solved
    for top, r_idx in enumerate(order):
        coeffs = table.product[r_idx] = {r_idx: ONE}

        def split(s, c):
            # c = beta_s + p_{s,t}, read from _SPLITS; on a miss, purity
            # and positivity as in the module docstring
            parity = 2 * ((dims[top] - dims[table._position[s]]) % 2)
            parts = _SPLITS.get((c, parity))
            if parts is None:
                p = (c - c.bar()).negative_half()
                beta = c - p
                if any(h % 4 != parity for h in c._terms):
                    raise PurityViolationError(
                        f"multiplicity ({c}) at {s} in b{r_idx} on Lambda_{d} "
                        f"has an exponent off the parity of dim O{r_idx} - dim O{s}"
                    )
                if any(x < 0 for x in beta._terms.values()):
                    raise PurityViolationError(
                        f"multiplicity ({c}) at {s} in b{r_idx} on Lambda_{d} "
                        f"has a negative bar-invariant part ({beta})"
                    )
                parts = _SPLITS[_shared(c), parity] = (_shared(beta), _shared(p))
            beta, p = parts
            if p._terms:
                coeffs[s] = p
            return beta

        # M_t - sum_s beta_s b_s, down to the product coordinates of b_t
        _peel(
            _monomial(d, r_idx, prefix),
            table,
            top,
            table.product.get,
            split,
            lambda: f"the walk of b{r_idx} on Lambda_{d} left a remainder at ",
        )
    _MEMO[key] = table
    return table


def canonical_basis(d: Composition, r: int) -> CanonicalTable:
    """The canonical basis table of Lambda_d at level r, solved from
    bar-invariant monomials (no kappa is read) and memoized per
    process."""
    d = orbits.check_composition(d)
    orbits.check_level(d, r)
    return _sub_table(d, r)


def _back_substitute(
    remainder: dict, table: CanonicalTable, row: Callable, what: Callable[[], str]
) -> dict[OrbitIndex, Laurent]:
    """Coordinates of remainder, an _accumulate dict, over the
    unitriangular term maps row(idx) of table, by _peel: setdefault keeps
    each coefficient it pops (none pops twice), highest position first.
    A leftover names what escaped (the text what() returns, formatted
    only then), the table and the index."""
    coords: dict[OrbitIndex, Laurent] = {}
    _peel(
        remainder,
        table,
        len(table.order),
        row,
        coords.setdefault,
        lambda: f"{what()} escaped the level-{table.r} table of Lambda_{table.d} at ",
    )
    return coords


def canonical_coords(
    table: CanonicalTable, u: ModuleVector
) -> list[tuple[OrbitIndex, Laurent]]:
    """Expand u over the canonical basis of its level by unitriangular
    back-substitution; returns (index, coefficient) pairs in the table
    order, zeros omitted.  A vector with a term off the table's level is
    a ValueError."""
    if u.d != table.d:
        raise AmbientMismatchError(
            f"vector over Lambda_{u.d} against the table of Lambda_{table.d}"
        )
    levels = u.levels()
    if levels - {table.r}:
        raise ValueError(
            f"vector at levels {sorted(levels)} against the level-{table.r} "
            f"table of Lambda_{table.d}"
        )
    rows = table.rows
    coords = _back_substitute(
        dict(u._terms), table, lambda i: rows[i]._terms, lambda: "vector"
    )
    return list(reversed(coords.items()))  # coords come highest position first


# -- split expansion -----------------------------------------------------------------


class SplitTable(_Record):
    """Rows re-express b_r over the product basis b_{s'} tensor b_{s''}
    after cutting the slots at `cut`; keys are full concatenated s, each
    the level's own tuple in orbits._level.  _position, each index's
    position in `order`, is derived by _position_of as in CanonicalTable
    and takes no part in equality or repr."""

    __slots__ = ("d", "cut", "r", "order", "rows", "_position")
    _compared = ("d", "cut", "r", "order", "rows")

    def __init__(
        self,
        d: Composition,
        cut: int,
        r: int,
        order: tuple[OrbitIndex, ...],
        rows: dict[OrbitIndex, dict[OrbitIndex, Laurent]],
    ):
        position = _position_of(d, r, order)
        self._set(d=d, cut=cut, r=r, order=order, rows=rows, _position=position)

    def to_json_obj(self) -> dict:
        """{"d", "cut", "r", "rows": [{"r_index", "terms": [{"s_index",
        "coeff"}, ...]}, ...]} by _rows_json; read-only, equal values share
        one object."""
        header = {"d": list(self.d), "cut": self.cut, "r": self.r}
        return _rows_json(self, header, "s_index", self.rows.__getitem__)

    def render(self) -> str:
        """The table as text, one row per line, a term b(s')*b(s'')."""
        cut = self.cut
        header = f"split expansion d={format_index(self.d)} cut={cut} r={self.r}"
        return _rows_text(
            self,
            header,
            self.rows.__getitem__,
            lambda s, _: f"b{format_index(s[:cut])}*b{format_index(s[cut:])}",
        )


def _split_rows(d: Composition, cut: int, r: int, memo: dict) -> dict:
    """The rows of split_expand(d, cut, r), by the recursion of the
    module docstring, each key the level's own tuple in orbits._level;
    memo holds the sub-splits of one call."""
    if (d, cut, r) in memo:
        return memo[d, cut, r]
    rows = memo[d, cut, r] = {}
    order, _, position = orbits._level(d, r)
    for t, coords in _sub_table(d, r).product.items():
        if cut == 1:
            rows[t] = dict(coords)
            continue
        by_right: dict[OrbitIndex, dict] = {}
        for s, p in coords.items():
            for xy, c in _split_rows(d[1:], cut - 1, r - s[0], memo)[s[1:]].items():
                acc = by_right.setdefault(xy[cut - 1 :], {})
                _accumulate(acc, s[:1] + xy[: cut - 1], p, c)
        rows[t] = {}
        for y, acc in by_right.items():
            left = _sub_table(d[:cut], r - sum(y))
            zs = _back_substitute(
                acc,
                left,
                left.product.get,
                lambda: f"split of b{t} on Lambda_{d} at cut {cut}",
            )
            rows[t].update((order[position[z + y]], _shared(c)) for z, c in zs.items())
    return rows


def split_expand(d: Composition, cut: int, r: int) -> SplitTable:
    """Expand each b_t of Lambda_d over the products b'_z tensor b''_y of
    the canonical bases of d[:cut] and d[cut:], read from the solve's
    product coordinates alone; no standard-basis row is read."""
    d = orbits.check_composition(d)
    if type(cut) is not int or not 1 <= cut < len(d):
        raise ValueError(f"cut {cut!r} out of range for {len(d)} slots")
    orbits.check_level(d, r)
    return SplitTable(d, cut, r, _sub_table(d, r).order, _split_rows(d, cut, r, {}))


# -- refinement embedding --------------------------------------------------------------


def _assert_embedding(m: LinMap) -> None:
    src = m.source
    # every column at its source index's level, so that pairs of columns
    # across levels pair to zero by orthogonality of the standard basis
    for idx, image in m.columns.items():
        if image.levels() - {sum(idx)}:
            raise EmbeddingCheckFailedError(
                f"embedding of Lambda_{src} sends {idx} off level {sum(idx)}"
            )
    for idx, image in m.columns.items():
        u = ModuleVector.basis(src, idx)
        for name, op in (("K", act_K), ("E", act_E), ("F", act_F)):
            if m.apply(op(u)) != op(image):
                raise EmbeddingCheckFailedError(
                    f"embedding of Lambda_{src} fails to intertwine {name} at {idx}"
                )
    for r in range(sum(src) + 1):
        cols = enumerate_basis(src, r)
        for i in cols:
            for j in cols:
                lhs = inner_product(m.columns[i], m.columns[j])
                rhs = gram_entry(src, i) if i == j else ZERO
                if lhs != rhs:
                    raise EmbeddingCheckFailedError(
                        f"embedding of Lambda_{src} is not an isometry at ({i}, {j})"
                    )


def embed_refine(d: Composition) -> LinMap:
    """The refinement embedding Lambda_d -> Lambda_(1,...,1): the tensor
    product, over the nonzero parts d_k, of the intertwiner into d_k
    ones that sends v_a to F^(a) v_(0,...,0) and so fixes the highest
    weight vector.  No canonical table is read; that each b_r goes to
    the b at the dense binary refinement of r is a theorem, which the
    embed suite of verify checks.  Intertwining and isometry are
    asserted on every construction, not assumed."""
    d = orbits.check_composition(d)
    if sum(d) == 0:
        raise ValueError("refinement of a zero composition has no slots")
    # images[n][a] = F^(a) v_(0,...,0) on n single-box factors
    images = {}
    for n in set(d) - {0}:
        top = ModuleVector.basis((1,) * n, (0,) * n)
        images[n] = [act_divided(top, "F", a) for a in range(n + 1)]

    def column(u: ModuleVector) -> ModuleVector:
        ((idx, _),) = u.unordered_items()
        return reduce(tensor, [images[n][a] for n, a in zip(d, idx) if n])

    m = LinMap.of(d, column)
    _assert_embedding(m)
    return m
