"""Scale checks: one large solve per fresh process, its output's sha256
pinned and its peak memory bounded.

Run from the repository root, one check per process:

    python3 tests/golden/scale.py canon-12

The checks are canon-12 (canonical_basis((1,)*12, 6) and a read of its
rows, which expands them), canon-14 (the same for (1,)*14 at level 7),
canon-16 (canonical_basis((1,)*16, 8), its product coordinates alone,
no row read), canon-18 (the same for (1,)*18 at level 9), canon-json-12
(qsl2 canon --d 1,...,1 (12 ones) --r 6 --format json), split-12
(split_expand((1,)*12, 6, 6)), split-16 (split_expand((1,)*16, 8, 8)),
split-text-12 (qsl2 split --d 1,...,1 (12 ones) --at 6 --r 6, the
table text), rmat-10 (r_move((1,)*10, w0, "minus"), w0 the longest
word), embed-12 (qsl2 embed --d 4,4,4 --basis canonical, the
refinement embedding's canonical matrices as text) and inner-120 (qsl2
inner --d 120 --r 60 --format json, one Gram entry read from the
quantum binomial [120 choose 60]).  Each prints one line with the wall
seconds of the part it bounds (canon-12 and canon-14 the solve and the
expansion apart), the peak resident set of the process
(VmHWM of /proc/self/status, so Linux only), read right after that
part, and the sha256 of the output, and exits 0 only when the sha256
equals its pin and the peak is under its bound; the seconds are
reported, not checked.  The peak is the whole process's, so a second
check in the same process would read the first one's: run each in a
process of its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

import qsl2  # noqa: E402


def _peak_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(ln.split()[1]) / 1024 for ln in fh if ln.startswith("VmHWM:"))


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _table_digest(table, terms) -> str:
    """The sha256 of _dump({"d", "r", "rows": [{"r_index", "terms":
    terms(idx)}, ...]}), the rows in table order, fed one row at a time."""
    digest = hashlib.sha256(
        b'{"d":' + _dump(list(table.d)) + b',"r":' + _dump(table.r) + b',"rows":['
    )
    for i, idx in enumerate(table.order):
        row = {"r_index": list(idx), "terms": terms(idx)}
        digest.update((b"," if i else b"") + _dump(row))
    digest.update(b"]}")
    return digest.hexdigest()


def _canon(n: int, pinned: str, bound_mb: float) -> bool:
    """canonical_basis((1,)*n, n // 2) and a read of its rows: the sha256
    of _dump(table.to_json_obj())."""
    start = time.perf_counter()
    table = qsl2.canonical_basis((1,) * n, n // 2)
    solved = time.perf_counter()
    # rows are expanded on their first read, which the peak must cover
    rows = table.rows
    expanded = time.perf_counter()
    # the table solve reads no quasi-R coefficient past kappa_0
    assert len(qsl2.canonical._KAPPA) == 1, qsl2.canonical._KAPPA
    # the peak of the solve and the expansion, read before the digest
    # adds its own
    peak_mb = _peak_mb()
    sha = _table_digest(table, lambda idx: rows[idx].to_json_obj()["terms"])
    print(
        f"{solved - start:.2f} s solve, {expanded - solved:.2f} s expansion, "
        f"peak {peak_mb:.1f} MB, table sha256 {sha}"
    )
    return sha == pinned and peak_mb < bound_mb


def _product(n: int, pinned: str, bound_mb: float) -> bool:
    """canonical_basis((1,)*n, n // 2), its product coordinates alone:
    the sha256 of _dump({"d", "r", "rows": [{"r_index", "terms": [{"s",
    "coeff"}, ...]}, ...]}), each row's terms by ascending position in
    table order.  No row is read, so no standard row is built."""
    start = time.perf_counter()
    table = qsl2.canonical_basis((1,) * n, n // 2)
    seconds = time.perf_counter() - start
    assert len(qsl2.canonical._KAPPA) == 1, qsl2.canonical._KAPPA
    # the peak of the solve, read before the digest adds its own
    peak_mb = _peak_mb()
    position = table._position

    def terms(t):
        coords = sorted(table.product[t].items(), key=lambda sc: position[sc[0]])
        return [{"s": list(s), "coeff": c.to_pairs()} for s, c in coords]

    sha = _table_digest(table, terms)
    print(f"{seconds:.2f} s, peak {peak_mb:.1f} MB, product sha256 {sha}")
    return sha == pinned and peak_mb < bound_mb


class _Digest:
    """A stdout that keeps only the sha256 and byte length of what is written."""

    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)

    def flush(self):
        pass


def _cli(argv: list[str], pinned: str, size: int, bound_mb: float) -> bool:
    """qsl2.cli.main(argv), its stdout's sha256 and byte length pinned."""
    import qsl2.cli

    real, sys.stdout = sys.stdout, _Digest()
    start = time.perf_counter()
    code = qsl2.cli.main(argv)
    seconds = time.perf_counter() - start
    out, sys.stdout = sys.stdout, real
    # the peak of the solve, the output and its encoding
    peak_mb = _peak_mb()
    print(
        f"exit {code}, {seconds:.2f} s, peak {peak_mb:.1f} MB, {out.size} bytes, "
        f"sha256 {out.sha.hexdigest()}"
    )
    ok = code == 0 and out.sha.hexdigest() == pinned and out.size == size
    return ok and peak_mb < bound_mb


_TWELVE = ",".join(["1"] * 12)


def _split(n: int, pinned: str, bound_mb: float) -> bool:
    """split_expand((1,)*n, n // 2, n // 2): the sha256 of
    _dump(split.to_json_obj())."""
    start = time.perf_counter()
    split = qsl2.split_expand((1,) * n, n // 2, n // 2)
    seconds = time.perf_counter() - start
    # the peak of the solve and the split, read before the digest adds its own
    peak_mb = _peak_mb()
    digest = hashlib.sha256(_dump(split.to_json_obj())).hexdigest()
    print(f"{seconds:.2f} s, peak {peak_mb:.1f} MB, split sha256 {digest}")
    return digest == pinned and peak_mb < bound_mb


def _rmat_10() -> bool:
    """r_move((1,)*10, w0, "minus") along the bubble-sort word of the
    longest permutation: the sha256 of the columns' terms, each column's
    to_json_obj()["terms"] in LinMap.of order (levels up, each level in
    enumerate_basis order), as one JSON list."""
    d = (1,) * 10
    w0 = [a for k in range(len(d) - 1, 0, -1) for a in range(1, k + 1)]
    start = time.perf_counter()
    move = qsl2.r_move(d, w0, "minus")
    seconds = time.perf_counter() - start
    # the peak of the move, read before the digest adds its own
    peak_mb = _peak_mb()
    digest = hashlib.sha256(b"[")
    order = [idx for r in range(sum(d) + 1) for idx in qsl2.enumerate_basis(d, r)]
    for i, idx in enumerate(order):
        terms = move.columns[idx].to_json_obj()["terms"]
        digest.update((b"," if i else b"") + _dump(terms))
    digest.update(b"]")
    print(f"{seconds:.2f} s, peak {peak_mb:.1f} MB, columns sha256 {digest.hexdigest()}")
    pinned = "839e1f53ffaaf531fcb45c4809876447b14b0da0dcaecf2412a73d609b8ce444"
    return digest.hexdigest() == pinned and peak_mb < 56


CHECKS = {
    "canon-12": lambda: _canon(
        12, "aa1266127209c1f5d566ba20fe4c3aa1035331e8b27abe7432798a666bda2c15", 64
    ),
    # pinned from the product-basis Theta solve that the monomial route replaced
    "canon-14": lambda: _canon(
        14, "39e2b5e3ca8fb21193432b22125c599bddc5556611782dfce3c26c66fd54693d", 256
    ),
    # pinned from the eager solve with its row expansion deleted
    "canon-16": lambda: _product(
        16, "c82b4ab05f00b9b675903b18337da3a6f67f8c1194cddd1e01a33b6407434695", 72
    ),
    # pinned from the solve that memoized every orbit dimension; the
    # bound lies below that solve's peak (185 MB on a 2-core machine)
    "canon-18": lambda: _product(
        18, "b6a7172d57b41bc0c080513bd1d090ae71c04960d96b63f89fc02214c550268a", 175
    ),
    # `python -m qsl2.cli ... | sha256sum` and `| wc -c` before the JSON
    # builders shared equal values
    "canon-json-12": lambda: _cli(
        ["canon", "--d", _TWELVE, "--r", "6", "--format", "json"],
        "950818b82b6eda03840867f057a2a07fd0d983022657c9b447ab17846b071395",
        96_513_550,
        64,
    ),
    "split-12": lambda: _split(
        12, "71ad514a0bf61feae868ca7a44f1ed3a90e64001ac550caeade460eb61d2bae3", 52
    ),
    # pinned from the split whose entry keys were fresh tuples; the bound
    # lies below that split's peak (180 MB on a 2-core machine)
    "split-16": lambda: _split(
        16, "0862337ba85111c56afa3a30deecb8ca3e0ac977cfc53054a3672214bc16de44", 96
    ),
    # `python -m qsl2.cli ... | sha256sum` and `| wc -c` before the two
    # table classes shared one text writer
    "split-text-12": lambda: _cli(
        ["split", "--d", _TWELVE, "--at", "6", "--r", "6"],
        "96d363e15a498ad4049c2ae55df6b2b2d3bfcac1002a9e5a0ac3f02280dc64fb",
        414_892,
        52,
    ),
    # pinned from the letter-by-letter composition of extended pair maps
    "rmat-10": _rmat_10,
    # `python -m qsl2.cli ... | sha256sum` and `| wc -c` before the
    # embedding was built through LinMap.of
    "embed-12": lambda: _cli(
        ["embed", "--d", "4,4,4", "--basis", "canonical"],
        "fd2d9ccd0ae39fa493f02113b448ce9b6118ed5c30763e0dc792c08b9b572899",
        6_077,
        76,
    ),
    # `python -m qsl2.cli ... | sha256sum` and `| wc -c` while the quantum
    # binomial was an iterated exact division of Laurent products
    "inner-120": lambda: _cli(
        ["inner", "--d", "120", "--r", "60", "--format", "json"],
        "47a8533865e880589cbff73950c62d47a6d7eeacf19163e65c547e3769d78b89",
        274_470,
        32,
    ),
}


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: python3 tests/golden/scale.py {{{','.join(CHECKS)}}}")
    sys.exit(0 if CHECKS[sys.argv[1]]() else 1)
