"""Exact arithmetic in Z[q^(1/2), q^(-1/2)] plus quantum combinatorics.

Elements are sparse Laurent polynomials in the formal square root of q,
stored as a map from half-exponents to arbitrary-precision integers.  A
half-exponent h stands for q^(h/2), so the subring A = Z[q, q^-1] is
exactly the set of elements with every h even.  Keeping the square root
in one ring lets the Cartan factor q^((1/2) H tensor H) of the R-matrix
act without a field extension; a predicate gates re-entry into A.

The quantum integer [n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3)
+ ... + q^(1-n), the factorial [n]! and the binomial are computed here
exactly.  The binomial is the Gaussian binomial in x = q^2, built on one
dense list of ints by exact passes that multiply by 1 - x^m and divide
by 1 - x^i, so a failed division is always a bug, never rounding.  The
three constants are memoized for the process (qsl2.clear_caches empties
the memos); Laurent values are never mutated, so sharing them is safe.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache

from .errors import NonDivisibleError

__all__ = [
    "Laurent",
    "ZERO",
    "ONE",
    "Q",
    "QINV",
    "q_power",
    "q_half",
    "quantum_integer",
    "quantum_factorial",
    "quantum_binomial",
    "exact_div",
]


class Laurent:
    """An element of Z[q^(1/2), q^(-1/2)] in canonical (zero-free) form."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        data: dict[int, int] = {}
        is_map = isinstance(terms, dict) or isinstance(terms, Mapping)
        items = terms.items() if is_map else terms
        for h, c in items:
            if type(h) is not int or type(c) is not int:
                raise TypeError("half-exponents and coefficients must be int")
            if c:
                nc = data.get(h, 0) + c
                if nc:
                    data[h] = nc
                elif h in data:
                    del data[h]
        self._terms = data
        self._hash: int | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_raw(cls, raw: Mapping[int, int]) -> "Laurent":
        """The element of a raw map {half-exponent: coefficient} whose
        keys and values are already ints; zeros are dropped and raw is
        copied, never kept.  No type checks: callers pass only maps built
        from the terms of other Laurent values."""
        terms = dict(raw)
        if 0 in terms.values():
            terms = {h: c for h, c in terms.items() if c}
        out = cls.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    @classmethod
    def from_int(cls, n: int) -> "Laurent":
        return cls({0: n})

    # -- canonical views ------------------------------------------------------

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms as (half_exponent, coefficient), ascending in the exponent."""
        return iter(sorted(self._terms.items()))

    def to_pairs(self) -> list[list]:
        """JSON form: sorted [half_exponent, coefficient-as-decimal-string]."""
        return [[h, str(c)] for h, c in self.items()]

    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations ------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Laurent | None":
        if isinstance(other, Laurent):
            return other
        if type(other) is int:
            return Laurent({0: other})
        return None

    def __add__(self, other) -> "Laurent":
        o = other if type(other) is Laurent else self._coerce(other)
        if o is None:
            return NotImplemented
        # values are immutable, so adding zero may return the other operand
        if not o._terms:
            return self
        if not self._terms:
            return o
        data = dict(self._terms)
        for h, c in o._terms.items():
            nc = data.get(h, 0) + c
            if nc:
                data[h] = nc
            elif h in data:
                del data[h]
        out = Laurent.__new__(Laurent)
        out._terms = data
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        out = Laurent.__new__(Laurent)
        out._terms = {h: -c for h, c in self._terms.items()}
        out._hash = None
        return out

    def __sub__(self, other) -> "Laurent":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Laurent":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Laurent":
        o = other if type(other) is Laurent else self._coerce(other)
        if o is None:
            return NotImplemented
        short, long = self._terms, o._terms
        if len(short) > len(long):
            short, long = long, short
        if not short:
            return ZERO
        if len(short) == 1:
            # a monomial times anything: one shift and scale, and no
            # cancellation is possible; multiplying by ONE returns the
            # other operand itself, which is safe as values are immutable
            ((h1, c1),) = short.items()
            if h1 == 0 and c1 == 1:
                return self if long is self._terms else o
            out = Laurent.__new__(Laurent)
            out._terms = {h1 + h2: c1 * c2 for h2, c2 in long.items()}
            out._hash = None
            return out
        # sum every product first and drop the cancelled terms once
        data: dict[int, int] = {}
        get = data.get
        for h1, c1 in short.items():
            for h2, c2 in long.items():
                h = h1 + h2
                data[h] = get(h, 0) + c1 * c2
        if 0 in data.values():
            data = {h: c for h, c in data.items() if c}
        out = Laurent.__new__(Laurent)
        out._terms = data
        out._hash = None
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if type(n) is not int or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if type(other) is Laurent:
            return self._terms == other._terms
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        # equal values hash equal: __eq__ coerces ints, so a constant
        # {0: c} must hash like c (and zero like 0)
        if self._hash is None:
            terms = self._terms
            if terms.keys() <= {0}:
                self._hash = hash(terms.get(0, 0))
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- the bar map and membership predicates --------------------------------

    def bar(self) -> "Laurent":
        """The involution q^(1/2) -> q^(-1/2): every exponent is negated."""
        out = Laurent.__new__(Laurent)
        out._terms = {-h: c for h, c in self._terms.items()}
        out._hash = None
        return out

    def is_in_a(self) -> bool:
        """Membership in A = Z[q, q^-1]: all half-exponents even."""
        return all(h % 2 == 0 for h in self._terms)

    def is_in_qinv_z_nonneg(self) -> bool:
        """Membership in q^-1 Z_{>=0}[q^-1]: zero, or all exponents strictly
        negative and even with positive coefficients."""
        return all(h < 0 and h % 2 == 0 and c > 0 for h, c in self._terms.items())

    def negative_half(self) -> "Laurent":
        """The part supported on strictly negative exponents."""
        out = Laurent.__new__(Laurent)
        out._terms = {h: c for h, c in self._terms.items() if h < 0}
        out._hash = None
        return out

    # -- display --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for h in sorted(self._terms, reverse=True):
            c = self._terms[h]
            mag = abs(c)
            if h == 0:
                body = str(mag)
            else:
                if h == 2:
                    power = "q"
                elif h % 2 == 0:
                    power = f"q^{h // 2}"
                else:
                    power = f"q^({h}/2)"
                body = power if mag == 1 else f"{mag}{power}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Laurent[{self}]"


ZERO = Laurent()
ONE = Laurent({0: 1})
Q = Laurent({2: 1})
QINV = Laurent({-2: 1})


def q_power(k: int) -> Laurent:
    """q^k for an int k (a bool is refused, as by the constructor); the
    monomial is built without the constructor's per-term checks."""
    if type(k) is not int:
        raise TypeError("half-exponents and coefficients must be int")
    out = Laurent.__new__(Laurent)
    out._terms = {2 * k: 1}
    out._hash = None
    return out


def q_half(h: int) -> Laurent:
    """q^(h/2) for an int h, odd half-powers included."""
    return Laurent({h: 1})


@lru_cache(maxsize=None, typed=True)
def quantum_integer(n: int) -> Laurent:
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n); [0] = 0."""
    if type(n) is not int or n < 0:
        raise ValueError(f"quantum integer needs n >= 0, got {n}")
    return Laurent({2 * (n - 1 - 2 * i): 1 for i in range(n)})


@lru_cache(maxsize=None, typed=True)
def quantum_factorial(n: int) -> Laurent:
    """[n]! = [1][2]...[n]; [0]! = 1."""
    if type(n) is not int or n < 0:
        raise ValueError(f"quantum factorial needs n >= 0, got {n}")
    out = ONE
    for k in range(2, n + 1):
        out = out * quantum_integer(k)
    return out


@lru_cache(maxsize=None, typed=True)
def quantum_binomial(n: int, r: int) -> Laurent:
    """[n choose r] = q^(-r(n-r)) prod_(i=1..r) (1 - x^(n-r+i)) / (1 - x^i)
    with x = q^2: the Gaussian binomial, which counts the F_(q^2)-points
    of the Grassmannian Gr(r, n), shifted to be bar invariant.

    Its coefficients in x, lowest degree first, are one dense list of
    ints.  Each factor is one pass that multiplies by 1 - x^m and one
    that divides by 1 - x^i; the top i entries the division leaves are
    its remainder, and a nonzero one raises NonDivisibleError.
    """
    if type(n) is not int or type(r) is not int or not 0 <= r <= n:
        raise ValueError(f"quantum binomial needs 0 <= r <= n, got n={n}, r={r}")
    coeffs = [1]
    for i in range(1, r + 1):
        m = n - r + i
        coeffs += [0] * m
        for j in range(len(coeffs) - 1, m - 1, -1):
            coeffs[j] -= coeffs[j - m]
        _divide_one_minus(coeffs, i)
        if any(coeffs[-i:]):
            raise NonDivisibleError(
                f"quantum binomial ({n}, {r}): 1 - q^{2 * i} leaves a remainder"
            )
        del coeffs[-i:]
    low = -2 * r * (n - r)
    return Laurent._from_raw(dict(zip(range(low, -low + 1, 4), coeffs)))


def _divide_one_minus(coeffs: list[int], i: int) -> None:
    """Divide the polynomial coeffs in x by 1 - x^i in place, in one
    pass: entry j becomes the sum of entries j, j - i, j - 2i, ... .  The
    top i entries are then the remainder, and the rest the quotient."""
    for j in range(i, len(coeffs)):
        coeffs[j] += coeffs[j - i]


def exact_div(a: Laurent, d: Laurent) -> Laurent:
    """The unique c with c * d = a, when it exists in the ring.

    Polynomial long division after shifting both operands to valuation
    zero: the dense remainder is reduced by the nonzero terms of d only,
    and the quotient collects its nonzero terms as it goes.  Any nonzero
    remainder or non-integer leading quotient raises NonDivisibleError,
    which always signals an upstream bug.
    """
    if d.is_zero():
        raise ZeroDivisionError("exact division by the zero element")
    if a.is_zero():
        return ZERO

    a_terms, d_terms = a._terms, d._terms
    a_lo, a_hi = min(a_terms), max(a_terms)
    d_lo, d_hi = min(d_terms), max(d_terms)
    deg_a = a_hi - a_lo
    deg_d = d_hi - d_lo

    # Dense remainder for x = q^(1/2), lowest degree first; the divisor
    # below its leading term as (degree, coefficient) pairs.
    num = [0] * (deg_a + 1)
    for h, c in a_terms.items():
        num[h - a_lo] = c
    lead = d_terms[d_hi]
    tail = [(h - d_lo, c) for h, c in d_terms.items() if h != d_hi]

    shift = a_lo - d_lo
    quot: dict[int, int] = {}
    for i in range(deg_a - deg_d, -1, -1):
        top = num[i + deg_d]
        if top == 0:
            continue
        if top % lead:
            raise NonDivisibleError(f"({a}) is not divisible by ({d})")
        c = quot[shift + i] = top // lead
        for j, dc in tail:
            num[i + j] -= c * dc
    # every degree from deg_d up was cancelled as the leading term; a of
    # lower degree than d is all remainder, its top term nonzero
    if any(num[:deg_d]):
        raise NonDivisibleError(f"({a}) is not divisible by ({d})")
    return Laurent._from_raw(quot)


# This module's lru_cache functions, held for qsl2.clear_caches.
_MEMOS = (quantum_integer, quantum_factorial, quantum_binomial)
