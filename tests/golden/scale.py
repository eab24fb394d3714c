"""Scale checks: one large solve per fresh process, its output's sha256
pinned and its peak memory bounded.

Run from the repository root, one check per process:

    python3 tests/golden/scale.py canon-12

The checks are canon-12 (canonical_basis((1,)*12, 6)), canon-14
(canonical_basis((1,)*14, 7)), canon-json-12 (qsl2 canon --d 1,...,1
(12 ones) --r 6 --format json) and split-12 (split_expand((1,)*12, 6,
6)).  Each prints one line with the peak resident set of the process
(VmHWM of /proc/self/status, so Linux only), read right after the part
it bounds, and the sha256 of the output, and exits 0 only when the
sha256 equals its pin and the peak is under its bound.  The peak is the
whole process's, so a second check in the same process would read the
first one's: run each in a process of its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

import qsl2  # noqa: E402


def _peak_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(ln.split()[1]) / 1024 for ln in fh if ln.startswith("VmHWM:"))


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _canon(n: int, pinned: str, bound_mb: float) -> bool:
    """canonical_basis((1,)*n, n // 2): the sha256 of
    _dump(table.to_json_obj()), fed one row at a time."""
    table = qsl2.canonical_basis((1,) * n, n // 2)
    # the table solve reads no quasi-R coefficient past kappa_0
    assert len(qsl2.canonical._KAPPA) == 1, qsl2.canonical._KAPPA
    # the peak of the solve, read before the digest adds its own
    peak_mb = _peak_mb()
    digest = hashlib.sha256(
        b'{"d":' + _dump(list(table.d)) + b',"r":' + _dump(table.r) + b',"rows":['
    )
    for i, idx in enumerate(table.order):
        row = {"r_index": list(idx), "terms": table.rows[idx].to_json_obj()["terms"]}
        digest.update((b"," if i else b"") + _dump(row))
    digest.update(b"]}")
    print(f"peak {peak_mb:.1f} MB, table sha256 {digest.hexdigest()}")
    return digest.hexdigest() == pinned and peak_mb < bound_mb


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


def _canon_json_12() -> bool:
    import qsl2.cli

    real, sys.stdout = sys.stdout, _Digest()
    code = qsl2.cli.main(
        ["canon", "--d", ",".join(["1"] * 12), "--r", "6", "--format", "json"]
    )
    out, sys.stdout = sys.stdout, real
    # the peak of the solve, the JSON document and its encoding
    peak_mb = _peak_mb()
    print(
        f"exit {code}, peak {peak_mb:.1f} MB, {out.size} bytes, "
        f"sha256 {out.sha.hexdigest()}"
    )
    # `python -m qsl2.cli ... | sha256sum` and `| wc -c` before the JSON
    # builders shared equal values
    pinned = "950818b82b6eda03840867f057a2a07fd0d983022657c9b447ab17846b071395"
    ok = code == 0 and out.sha.hexdigest() == pinned and out.size == 96_513_550
    return ok and peak_mb < 64


def _split_12() -> bool:
    split = qsl2.split_expand((1,) * 12, 6, 6)
    # the peak of the solve and the split, read before the digest adds its own
    peak_mb = _peak_mb()
    digest = hashlib.sha256(_dump(split.to_json_obj())).hexdigest()
    print(f"peak {peak_mb:.1f} MB, split sha256 {digest}")
    pinned = "71ad514a0bf61feae868ca7a44f1ed3a90e64001ac550caeade460eb61d2bae3"
    return digest == pinned and peak_mb < 52


CHECKS = {
    "canon-12": lambda: _canon(
        12, "aa1266127209c1f5d566ba20fe4c3aa1035331e8b27abe7432798a666bda2c15", 64
    ),
    # pinned from the product-basis Theta solve that the monomial route replaced
    "canon-14": lambda: _canon(
        14, "39e2b5e3ca8fb21193432b22125c599bddc5556611782dfce3c26c66fd54693d", 256
    ),
    "canon-json-12": _canon_json_12,
    "split-12": _split_12,
}


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: python3 tests/golden/scale.py {{{','.join(CHECKS)}}}")
    sys.exit(0 if CHECKS[sys.argv[1]]() else 1)
