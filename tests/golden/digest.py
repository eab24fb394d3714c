"""Print the 910-table digest of the canonical bases.

Run from the repository root:

    python3 tests/golden/digest.py

The digest is the sha256 of the concatenated compact JSON of 910
tables, each dumped as json.dumps(table.to_json_obj(), sort_keys=True,
separators=(",", ":")).  The tables, in order: every composition of
total 1..7 (in the order of _compositions below) at levels 0..total,
then (0,2,0,1) at levels 0..3, then (1,)*8 at levels 0..8, then (1,)*9
at level 4.  A change that keeps every table keeps this digest, so it
is the one number to compare across changes to the solve.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from qsl2 import canonical_basis  # noqa: E402


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def cases() -> list[tuple[tuple[int, ...], int]]:
    out = [
        (d, r)
        for total in range(1, 8)
        for d in _compositions(total)
        for r in range(total + 1)
    ]
    out += [((0, 2, 0, 1), r) for r in range(4)]
    out += [((1,) * 8, r) for r in range(9)]
    out += [((1,) * 9, 4)]
    return out


def digest() -> str:
    h = hashlib.sha256()
    for d, r in cases():
        obj = canonical_basis(d, r).to_json_obj()
        h.update(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
