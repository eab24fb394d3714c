"""Tensor modules over the integral quantum sl2 and their standard bases.

Lambda_d for a single part d has basis v_0, ..., v_d with

    K v_r = q^(d-2r) v_r,   E v_r = [d-r+1] v_(r-1),   F v_r = [r+1] v_(r+1)

and v_(-1) = v_(d+1) = 0.  For a composition d = (d_1, ..., d_l) the
module Lambda_d is the tensor product of the Lambda_(d_k); the standard
basis v_r is indexed by orbit indices r = (r_1, ..., r_l).  E and F act
on the whole module through the comultiplication: E picks up a K on
every factor to the left of the slot it lowers, F picks up a K^-1 on
every factor to the right.  Divided powers are built one step at a
time, X^(k) u = X(X^(k-1) u) / [k], and every division is exact; a
failed one is an integrality bug and is surfaced as such rather than
repaired.  The quasi-R operator theta acts on two factor vectors u and
w, as sum_n c(n) F^(n) u tensor E^(n) w, walking the same steps and
calling the coefficient function c only for the terms it sums.

Every kernel (combine, tensor, the E, F and K actions, theta) sums its
terms through one helper in which a factor 1 multiplies nothing: the
other factor is stored as it is, since vectors and ring values are
immutable.  So E, F and K of a basis vector make no Laurent product,
and combine of a single pair (c, u) is u scaled by c, u itself for c = 1.

The twisted adjoint rho (rho(K) = K, rho(E) = qKF, rho(F) = qK^-1 E)
makes the inner product contravariant: (x u, w) = (u, rho(x) w).  On
standard basis vectors the inner product is the product over factors of
binom(d_k, r_k)_q * q^(-r_k (d_k - r_k)), extended bilinearly with no
bar twist.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping
from functools import lru_cache

from . import orbits
from .orbits import format_index
from .errors import AmbientMismatchError, IntegralityViolationError, NonDivisibleError
from .qring import Laurent, ONE, ZERO, exact_div, q_power, quantum_binomial, quantum_integer

__all__ = [
    "ModuleVector",
    "LinMap",
    "enumerate_basis",
    "tensor",
    "combine",
    "act_K",
    "act_E",
    "act_F",
    "act_divided",
    "inner_product",
    "gram_entry",
    "rho_twist",
    "format_index",
]

Composition = orbits.Composition
OrbitIndex = orbits.OrbitIndex

# the terms of 1, which a coefficient's terms are compared with by value
# (a fresh Laurent({0: 1}) is not ONE); never mutated
_UNIT = ONE._terms


def _accumulate(
    data: dict[OrbitIndex, Laurent], idx: OrbitIndex, c: Laurent, x: Laurent
) -> None:
    """Add c * x to data[idx], dropping an entry that cancels.  A factor
    equal to 1 (by value) multiplies nothing, the other is taken as it
    is, and a first entry is stored as it is: values are immutable."""
    if c._terms == _UNIT:
        value = x
    elif x._terms == _UNIT:
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


def _times(*factors: Laurent) -> Laurent:
    """The product of factors, in which a factor equal to 1 multiplies nothing."""
    out = ONE
    for x in factors:
        if x._terms != _UNIT:
            out = x if out._terms == _UNIT else out * x
    return out


class ModuleVector:
    """A finite linear combination of standard basis vectors of Lambda_d.

    Canonical form stores no zero coefficients.  Vectors are immutable,
    so operations may share them: scaling by 1 returns the vector itself,
    and every other operation returns a fresh instance.
    """

    __slots__ = ("d", "_terms")

    def __init__(
        self,
        d: Composition,
        terms: Mapping[OrbitIndex, Laurent] | Iterable[tuple[OrbitIndex, Laurent]] = (),
    ):
        self.d = orbits.check_composition(d)
        data: dict[OrbitIndex, Laurent] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for idx, c in items:
            idx = orbits.check_index(self.d, idx)
            if not isinstance(c, Laurent):
                raise TypeError(f"coefficient of {idx} is not a ring element")
            if not c.is_zero():
                _accumulate(data, idx, ONE, c)
        self._terms = data

    @classmethod
    def _make(cls, d: Composition, data: dict[OrbitIndex, Laurent]) -> "ModuleVector":
        out = cls.__new__(cls)
        out.d = d
        out._terms = data
        return out

    @classmethod
    def zero(cls, d: Composition) -> "ModuleVector":
        return cls._make(orbits.check_composition(d), {})

    @classmethod
    def basis(cls, d: Composition, idx: OrbitIndex) -> "ModuleVector":
        d = orbits.check_composition(d)
        idx = orbits.check_index(d, idx)
        return cls._make(d, {idx: ONE})

    # -- views ----------------------------------------------------------------

    def _order_key(self, idx: OrbitIndex):
        return (sum(idx), orbits._orbit_dim(self.d, idx), idx)

    def items(self) -> list[tuple[OrbitIndex, Laurent]]:
        """Terms in canonical order: level, then the linear extension."""
        return sorted(self._terms.items(), key=lambda kv: self._order_key(kv[0]))

    def unordered_items(self) -> Iterable[tuple[OrbitIndex, Laurent]]:
        """Terms in storage order, for callers that discard the order."""
        return self._terms.items()

    def coeff(self, idx: OrbitIndex) -> Laurent:
        return self._terms.get(tuple(idx), ZERO)

    def support(self) -> set[OrbitIndex]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def levels(self) -> set[int]:
        return {sum(idx) for idx in self._terms}

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        if other.d != self.d:
            raise AmbientMismatchError(f"cannot add vectors over {self.d} and {other.d}")
        data = dict(self._terms)
        for idx, c in other._terms.items():
            _accumulate(data, idx, ONE, c)
        return ModuleVector._make(self.d, data)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ModuleVector":
        return ModuleVector._make(self.d, {idx: -c for idx, c in self._terms.items()})

    def scale(self, c: Laurent | int) -> "ModuleVector":
        if isinstance(c, int):
            c = Laurent.from_int(c)
        if c._terms == _UNIT:
            return self
        if not c._terms:
            return ModuleVector.zero(self.d)
        data = {i: c if x._terms == _UNIT else x * c for i, x in self._terms.items()}
        return ModuleVector._make(self.d, data)

    def map_coefficients(self, f: Callable[[Laurent], Laurent]) -> "ModuleVector":
        data = {i: fc for i, c in self._terms.items() if (fc := f(c))._terms}
        return ModuleVector._make(self.d, data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.d == other.d and self._terms == other._terms

    def __hash__(self):
        return hash((self.d, frozenset(self._terms.items())))

    # -- serialization -----------------------------------------------------------

    def to_json_obj(self) -> dict:
        """{"d": d, "terms": [{"r": index, "coeff": pairs}, ...]} in
        canonical order.  Equal coefficients share one pairs list, so the
        object is read-only: copy.deepcopy it before mutating."""
        return {"d": list(self.d), "terms": _JsonParts().terms(self.items())}

    # -- display -----------------------------------------------------------------

    def _render(self, symbol: str) -> str:
        if not self._terms:
            return "0"
        return render_terms(
            (c, f"{symbol}{format_index(idx)}") for idx, c in reversed(self.items())
        )

    def __str__(self) -> str:
        return self._render("v")

    def __repr__(self) -> str:
        return f"ModuleVector[{self}]"


def render_terms(
    terms: Iterable[tuple[Laurent, str]],
    texts: dict[Laurent, tuple[bool, str]] | None = None,
) -> str:
    """Join (coefficient, label) pairs as a signed sum: a monomial
    coefficient prints bare with its sign pulled out front, 1 prints
    nothing, and a longer polynomial prints in parentheses.  texts maps
    each coefficient formatted so far to its sign and text; a caller
    that renders many sums passes one dict for all of them, so each
    distinct coefficient is formatted once."""
    if texts is None:
        texts = {}
    chunks: list[str] = []
    for c, label in terms:
        parts = texts.get(c)
        if parts is None:
            text = str(c)
            if len(c._terms) == 1:
                negative = text[0] == "-"
                mono = text[1:] if negative else text
                parts = negative, "" if mono == "1" else f"{mono} "
            else:
                parts = False, f"({text}) "
            texts[c] = parts
        negative, body = parts
        term = f"{body}{label}"
        if not chunks:
            chunks.append(f"-{term}" if negative else term)
        else:
            chunks.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(chunks)


class _JsonParts:
    """The sub-objects of one JSON document, each distinct value built
    once: one to_pairs() list per coefficient value, one list per index,
    and one term dict {key: index, "coeff": pairs} per (index,
    coefficient).  A builder makes one for a single call, so nothing is
    kept between documents, and equal values in its document are one
    shared object: the document is read-only."""

    __slots__ = ("key", "_pairs", "_indices", "_terms")

    def __init__(self, key: str = "r"):
        self.key = key
        self._pairs: dict[Laurent, list] = {}
        self._indices: dict[OrbitIndex, list] = {}
        self._terms: dict[tuple[OrbitIndex, Laurent], dict] = {}

    def pairs(self, c: Laurent) -> list:
        out = self._pairs.get(c)
        if out is None:
            out = self._pairs[c] = c.to_pairs()
        return out

    def index(self, idx: OrbitIndex) -> list:
        out = self._indices.get(idx)
        if out is None:
            out = self._indices[idx] = list(idx)
        return out

    def terms(self, items: Iterable[tuple[OrbitIndex, Laurent]]) -> list[dict]:
        """The term dicts of (index, coefficient) items, in order."""
        memo, out = self._terms, []
        for idx, c in items:
            term = memo.get((idx, c))
            if term is None:
                term = memo[idx, c] = {self.key: self.index(idx), "coeff": self.pairs(c)}
            out.append(term)
        return out


def enumerate_basis(d: Composition, r: int) -> list[OrbitIndex]:
    """Standard basis indices of weight level r in the fixed linear order;
    empty outside 0 <= r <= total."""
    return orbits.linear_extension(d, r)


def _basis_order(d: Composition) -> Iterable[OrbitIndex]:
    """Every standard basis index of Lambda_d: level by level, each
    level in its linear extension."""
    d = orbits.check_composition(d)
    for r in range(sum(d) + 1):
        yield from orbits._linear_extension(d, r)


@lru_cache(maxsize=None)
def _basis_indices(d: Composition) -> frozenset[OrbitIndex]:
    """The set of every standard basis index of Lambda_d, memoized for
    the process."""
    return frozenset(_basis_order(d))


def tensor(u: ModuleVector, w: ModuleVector) -> ModuleVector:
    """The product vector in Lambda_(d_u + d_w), indices concatenated."""
    d = u.d + w.d
    data: dict[OrbitIndex, Laurent] = {}
    for iu, cu in u._terms.items():
        for iw, cw in w._terms.items():
            _accumulate(data, iu + iw, cu, cw)
    return ModuleVector._make(d, data)


def combine(d: Composition, pairs: Iterable[tuple[Laurent, ModuleVector]]) -> ModuleVector:
    """The linear combination sum c u over (c, u) in pairs, every u over
    d and every c a ring element, accumulated into one dict; empty pairs
    give the zero vector.  One pair (c, u) is u scaled by c, which is u
    itself for c = 1 (vectors are immutable); otherwise a zero c adds
    nothing and a c of 1 multiplies nothing."""
    pairs = list(pairs)
    data: dict[OrbitIndex, Laurent] = {}
    for c, u in pairs:
        if u.d != d:
            raise AmbientMismatchError(f"cannot add a vector over {u.d} to one over {d}")
        if not isinstance(c, Laurent):
            raise TypeError(f"coefficient {c!r} is not a ring element")
        if len(pairs) == 1:
            return u.scale(c)
        if c._terms:
            for idx, x in u._terms.items():
                _accumulate(data, idx, c, x)
    return ModuleVector._make(d, data)


# -- the integral quantum sl2 action ------------------------------------------


def act_K(u: ModuleVector, sign: int = 1) -> ModuleVector:
    """K (sign +1) or K^-1 (sign -1): v_r gets q^(+-(d - 2r))."""
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    total = sum(u.d)
    data: dict[OrbitIndex, Laurent] = {}
    for idx, c in u._terms.items():
        _accumulate(data, idx, c, q_power(sign * (total - 2 * sum(idx))))
    return ModuleVector._make(u.d, data)


@lru_cache(maxsize=None)
def _step_scalar(m: int, k: int) -> Laurent:
    """[m] q^k, the scalar one step of E or F puts on a term; memoized
    for the process."""
    return quantum_integer(m) * q_power(k)


def act_E(u: ModuleVector) -> ModuleVector:
    """E through the comultiplication.  The slot being lowered
    contributes [d_k - r_k + 1]; slots before it contribute their
    K-weight."""
    d = u.d
    data: dict[OrbitIndex, Laurent] = {}
    for idx, c in u._terms.items():
        kweight = 0
        for k, rk in enumerate(idx):
            if rk > 0:
                scalar = _step_scalar(d[k] - rk + 1, kweight)
                _accumulate(data, idx[:k] + (rk - 1,) + idx[k + 1 :], c, scalar)
            kweight += d[k] - 2 * rk
    return ModuleVector._make(d, data)


def act_F(u: ModuleVector) -> ModuleVector:
    """F through the comultiplication; slots after the raised one
    contribute their inverse K-weight."""
    d = u.d
    total = sum(d)
    data: dict[OrbitIndex, Laurent] = {}
    for idx, c in u._terms.items():
        tail = total - 2 * sum(idx)
        for k, rk in enumerate(idx):
            tail -= d[k] - 2 * rk
            if rk < d[k]:
                scalar = _step_scalar(rk + 1, -tail)
                _accumulate(data, idx[:k] + (rk + 1,) + idx[k + 1 :], c, scalar)
    return ModuleVector._make(d, data)


def _divided_step(v: ModuleVector, gen: str, k: int) -> ModuleVector:
    """X^(k) u from v = X^(k-1) u, for X = E or F: one more action, then
    the exact division by [k]."""
    v = act_E(v) if gen == "E" else act_F(v)
    if k <= 1 or v.is_zero():
        return v
    qk = quantum_integer(k)
    try:
        return v.map_coefficients(lambda c: exact_div(c, qk))
    except NonDivisibleError as e:
        raise IntegralityViolationError(
            f"{gen}^({k}): step {k} not divisible by [{k}] on Lambda_{v.d}"
        ) from e


def act_divided(u: ModuleVector, gen: str, n: int) -> ModuleVector:
    """E^(n) or F^(n), built one step at a time: X^(k) u = X(X^(k-1) u)
    / [k] for k = 1 .. n, each division exact."""
    if gen not in ("E", "F"):
        raise ValueError(f"unknown generator {gen!r}")
    if type(n) is not int or n < 0:
        raise ValueError("divided power needs n >= 0")
    v = u
    for k in range(1, n + 1):
        v = _divided_step(v, gen, k)
    return v


def theta(
    left: ModuleVector, right: ModuleVector, kappa: Callable[[int], Laurent]
) -> ModuleVector:
    """sum_n kappa(n) F^(n) left tensor E^(n) right, on
    Lambda_(left.d + right.d).  Both halves are built one step at a
    time, F^(n) left from F^(n-1) left and E^(n) right from
    E^(n-1) right, so a sum of N terms costs N actions per side.  The sum
    stops at the first n whose F or E half vanishes, as every later one
    vanishes too, and kappa is called once for each term summed, n = 0
    first, so it is read exactly as far as the sum reaches.  Each term is
    summed straight into the result, its coefficient multiplied once
    into each entry of the F half."""
    d = left.d + right.d
    data: dict[OrbitIndex, Laurent] = {}
    f_part, e_part = left, right
    n = 0
    while f_part._terms and e_part._terms:
        c = kappa(n)
        for iu, cu in f_part._terms.items():
            scalar = c * cu
            for iw, cw in e_part._terms.items():
                _accumulate(data, iu + iw, scalar, cw)
        n += 1
        f_part = _divided_step(f_part, "F", n)
        if f_part._terms:
            e_part = _divided_step(e_part, "E", n)
    return ModuleVector._make(d, data)


# -- inner product and the adjoint twist ---------------------------------------


def gram_entry(d: Composition, idx: OrbitIndex) -> Laurent:
    """(v_idx, v_idx) = product over factors of binom(d_k, r_k)_q q^(-r_k(d_k-r_k))."""
    d = orbits.check_composition(d)
    return _gram(d, orbits.check_index(d, idx))


@lru_cache(maxsize=None)
def _gram(d: Composition, idx: OrbitIndex) -> Laurent:
    """gram_entry on checked arguments, memoized for the process."""
    shift = q_power(-sum(rk * (dk - rk) for dk, rk in zip(d, idx)))
    return _times(shift, *(quantum_binomial(dk, rk) for dk, rk in zip(d, idx)))


def inner_product(u: ModuleVector, w: ModuleVector) -> Laurent:
    """Bilinear, symmetric, standard basis orthogonal with gram_entry on
    the diagonal.  No bar twist on either argument."""
    if u.d != w.d:
        raise AmbientMismatchError(f"inner product across {u.d} and {w.d}")
    # both vectors hold checked indices over the checked u.d, so the
    # memoized Gram entries are read directly; the products accumulate
    # as raw {half-exponent: coefficient} and one Laurent is built
    acc: defaultdict[int, int] = defaultdict(int)
    small, large = (u, w) if len(u._terms) <= len(w._terms) else (w, u)
    for idx, c in small._terms.items():
        cw = large._terms.get(idx)
        if cw is not None:
            gram = _gram(u.d, idx)._terms.items()
            for h1, c1 in c._terms.items():
                for h2, c2 in cw._terms.items():
                    c12 = c1 * c2
                    for h3, c3 in gram:
                        acc[h1 + h2 + h3] += c12 * c3
    return Laurent._from_raw(acc)


def rho_twist(gen: str) -> Callable[[ModuleVector], ModuleVector]:
    """The adjoint of gen for inner_product: (x u, w) = (u, rho(x) w).
    rho(K) = K, rho(E) = qKF, rho(F) = qK^-1 E, as composite operators."""
    if gen == "K":
        return act_K
    if gen == "E":
        return lambda u: act_K(act_F(u)).scale(q_power(1))
    if gen == "F":
        return lambda u: act_K(act_E(u), -1).scale(q_power(1))
    raise ValueError(f"unknown generator {gen!r}")


# -- exact linear maps ----------------------------------------------------------


class _Record:
    """Base of the value records.  A subclass lists its fields in
    __slots__, in constructor order, and sets them in __init__ with
    _set, followed by any slot derived from them, whose name starts with
    an underscore; `_compared` (default: every field) names the fields
    that take part in equality, hash and repr.  Assignment raises
    AttributeError, and __reduce__ rebuilds a record from its fields for
    copy and pickle."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        names = self._compared or self.__slots__
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self._compared or self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        fields = (name for name in self.__slots__ if name[0] != "_")
        return type(self), tuple(getattr(self, name) for name in fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LinMap(_Record):
    """A column map between standard bases: domain index -> image vector.

    There is exactly one column per standard basis index of source, and
    columns may span several weight levels; both the keys and the
    target of every column are checked once, at construction.
    """

    __slots__ = ("source", "target", "columns")

    def __init__(
        self,
        source: Composition,
        target: Composition,
        columns: dict[OrbitIndex, ModuleVector],
    ):
        basis = _basis_indices(source)
        if columns.keys() != basis:
            for idx in columns:
                if idx not in basis:
                    raise AmbientMismatchError(
                        f"column key {idx!r} is not a standard basis index of {source}"
                    )
            missing = next(idx for idx in _basis_order(source) if idx not in columns)
            raise AmbientMismatchError(
                f"no column for the basis index {format_index(missing)} of {source}"
            )
        for idx, col in columns.items():
            if col.d != target:
                raise AmbientMismatchError(
                    f"column {format_index(idx)} lies over {col.d}, "
                    f"not the target {target}"
                )
        self._set(source=source, target=target, columns=columns)

    def apply(self, u: ModuleVector) -> ModuleVector:
        """The image of u: a one-term vector is its column scaled (the
        column itself for a coefficient 1), a longer one is accumulated
        column by column into one dict."""
        if u.d != self.source:
            raise AmbientMismatchError(f"map on {self.source} applied to {u.d}")
        columns = self.columns
        if len(u._terms) == 1:
            ((idx, c),) = u._terms.items()
            return columns[idx].scale(c)
        data: dict[OrbitIndex, Laurent] = {}
        for idx, c in u._terms.items():
            for jdx, x in columns[idx]._terms.items():
                _accumulate(data, jdx, c, x)
        return ModuleVector._make(self.target, data)

    def compose(self, inner: "LinMap") -> "LinMap":
        """self after inner."""
        if inner.target != self.source:
            raise AmbientMismatchError(
                f"cannot compose {self.source}<-... after ...->{inner.target}"
            )
        cols = {idx: self.apply(v) for idx, v in inner.columns.items()}
        return LinMap(inner.source, self.target, cols)

    @classmethod
    def of(
        cls, d: Composition, op: Callable[[ModuleVector], ModuleVector]
    ) -> "LinMap":
        """The map of an operator on Lambda_d, one column op(v_idx) per
        standard basis vector, in the order of the columns: level by
        level, each level in its linear extension.  The target is the
        composition of the level-0 column, op(v_(0,...,0)); every other
        column must lie over it."""
        d = orbits.check_composition(d)
        cols = {idx: op(ModuleVector._make(d, {idx: ONE})) for idx in _basis_order(d)}
        return cls(d, cols[(0,) * len(d)].d, cols)

    @classmethod
    def identity(cls, d: Composition) -> "LinMap":
        return cls.of(d, lambda u: u)
