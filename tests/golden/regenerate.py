"""Regenerate the golden files in this directory from the current
implementation.

Run from the repository root:

    python3 tests/golden/regenerate.py

Every file this script writes is a frozen contract: regenerating after
a behavior change and committing the diff is a deliberate act, so
review each changed file against the hand-checked values in the test
modules before accepting it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from qsl2 import ModuleVector, canonical_basis, split_expand  # noqa: E402
from qsl2.cli import main  # noqa: E402
from qsl2.modules import (  # noqa: E402
    act_divided,
    act_E,
    act_K,
    gram_entry,
    inner_product,
    rho_twist,
)
from qsl2.orbits import closure_leq  # noqa: E402
from qsl2.qring import Laurent  # noqa: E402
from qsl2.verify import compositions  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

CLI_CASES = {
    "canon_d2-2_r2.txt": ["canon", "--d", "2,2", "--r", "2"],
    "canon_d2-2_r2.json": ["canon", "--d", "2,2", "--r", "2", "--format", "json"],
    "canon_d5_r3.txt": ["canon", "--d", "5", "--r", "3"],
    "canon_d1-1-1_r1.json": [
        "canon", "--d", "1,1,1", "--r", "1", "--format", "json",
    ],
    "split_d1-1-1_at1_r1.txt": ["split", "--d", "1,1,1", "--at", "1", "--r", "1"],
    "split_d1-1-1_at1_r1.json": [
        "split", "--d", "1,1,1", "--at", "1", "--r", "1", "--format", "json",
    ],
    "split_d2-2_at1_r2.txt": ["split", "--d", "2,2", "--at", "1", "--r", "2"],
    "split_d1-1-1-1_at2_r2.txt": [
        "split", "--d", "1,1,1,1", "--at", "2", "--r", "2",
    ],
    "split_d1-1-1-1_at2_r2.json": [
        "split", "--d", "1,1,1,1", "--at", "2", "--r", "2", "--format", "json",
    ],
    "rmat_d1-1_w1_plus_can.txt": [
        "rmat", "--d", "1,1", "--word", "1", "--sign", "plus",
        "--basis", "canonical",
    ],
    "rmat_d1-1_w1_minus_can.txt": [
        "rmat", "--d", "1,1", "--word", "1", "--sign", "minus",
        "--basis", "canonical",
    ],
    "rmat_d1-1_w1_plus_std.txt": [
        "rmat", "--d", "1,1", "--word", "1", "--sign", "plus",
        "--basis", "standard",
    ],
    "rmat_d1-1_w1_plus_can.json": [
        "rmat", "--d", "1,1", "--word", "1", "--sign", "plus",
        "--basis", "canonical", "--format", "json",
    ],
    "rmat_d1-1_w1_plus_std.json": [
        "rmat", "--d", "1,1", "--word", "1", "--sign", "plus",
        "--basis", "standard", "--format", "json",
    ],
    "rmat_d2-2_w1_plus_can.txt": [
        "rmat", "--d", "2,2", "--word", "1", "--sign", "plus",
        "--basis", "canonical",
    ],
    "rmat_d2-2_w1_minus_can.txt": [
        "rmat", "--d", "2,2", "--word", "1", "--sign", "minus",
        "--basis", "canonical",
    ],
    "rmat_d1-1-1_w1-2-1_minus_can.txt": [
        "rmat", "--d", "1,1,1", "--word", "1,2,1", "--sign", "minus",
        "--basis", "canonical",
    ],
    "rmat_d1-1-1_w1-2-1_minus_can.json": [
        "rmat", "--d", "1,1,1", "--word", "1,2,1", "--sign", "minus",
        "--basis", "canonical", "--format", "json",
    ],
    "bar_d1-1_v0-1.txt": ["bar", "--d", "1,1", "--vector", "0,1"],
    "bar_d1-1_v0-1.json": [
        "bar", "--d", "1,1", "--vector", "0,1", "--format", "json",
    ],
    "inner_d4_r2_std.txt": ["inner", "--d", "4", "--r", "2"],
    "inner_d4_r2_std.json": ["inner", "--d", "4", "--r", "2", "--format", "json"],
    "inner_d2-2_r2_can.txt": [
        "inner", "--d", "2,2", "--r", "2", "--basis", "canonical",
    ],
    "inner_d2-2_r2_can.json": [
        "inner", "--d", "2,2", "--r", "2", "--basis", "canonical",
        "--format", "json",
    ],
    "orbits_d2-2_r2.txt": ["orbits", "--d", "2,2", "--r", "2"],
    "orbits_d2-2_r2.json": [
        "orbits", "--d", "2,2", "--r", "2", "--format", "json",
    ],
    "orbits_d2-2_r2.dot": ["orbits", "--d", "2,2", "--r", "2", "--format", "dot"],
    "embed_d2_can.txt": ["embed", "--d", "2", "--basis", "canonical"],
    "embed_d2-1_std.json": ["embed", "--d", "2,1", "--format", "json"],
    "embed_d2-2_std.txt": ["embed", "--d", "2,2", "--basis", "standard"],
    "embed_d2-2_can.json": [
        "embed", "--d", "2,2", "--basis", "canonical", "--format", "json",
    ],
    "verify_t3.txt": ["verify", "--max-total", "3"],
}


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"golden command {argv} exited {code}")
    return buf.getvalue()


def library_values() -> dict:
    """Exact values of library facts with no dedicated subcommand."""
    V = ModuleVector.basis
    witness = Laurent({-2: 1, -6: 1})
    v2_of_3 = V((3,), (2,))
    rho_k = rho_twist("K")
    return {
        "qinv_nonneg_example": {
            "pairs": witness.to_pairs(),
            "rendered": str(witness),
            "is_in_qinv_z_nonneg": witness.is_in_qinv_z_nonneg(),
        },
        "k_on_v2_lambda3": act_K(v2_of_3).to_json_obj(),
        "e_on_v2_lambda3": act_E(v2_of_3).to_json_obj(),
        "divided_f_to_v_r_lambda4": [
            {
                "r": r,
                "image": act_divided(V((4,), (0,)), "F", r).to_json_obj(),
            }
            for r in range(5)
        ],
        "rho_k_adjoint_instance_lambda3": {
            "lhs": inner_product(act_K(v2_of_3), v2_of_3).to_pairs(),
            "rhs": inner_product(v2_of_3, rho_k(v2_of_3)).to_pairs(),
        },
        "gram_diagonal_lambda4": [
            {"r": r, "value": gram_entry((4,), (r,)).to_pairs()}
            for r in range(5)
        ],
    }


def positivity_summary(max_total: int) -> dict:
    """Sweep all positive compositions up to max_total and record every
    violation of the three positivity contracts (expected: none)."""
    offdiag: list[str] = []
    pairing: list[str] = []
    split_bad: list[str] = []
    for d in compositions(max_total):
        for r in range(sum(d) + 1):
            table = canonical_basis(d, r)
            for idx in table.order:
                for s, c in table.rows[idx].items():
                    if s != idx and not c.is_in_qinv_z_nonneg():
                        offdiag.append(f"d={d} r={r} {idx}->{s}: {c}")
            for i in table.order:
                for j in table.order:
                    val = inner_product(table.rows[i], table.rows[j])
                    if i == j:
                        val = val - Laurent({0: 1})
                    if not val.is_in_qinv_z_nonneg():
                        pairing.append(f"d={d} r={r} ({i},{j}): {val}")
            for cut in range(1, len(d)):
                st = split_expand(d, cut, r)
                for idx in st.order:
                    for s, c in st.rows[idx].items():
                        ok = s == idx or (
                            closure_leq(d, s, idx) and c.is_in_qinv_z_nonneg()
                        )
                        if not ok:
                            split_bad.append(
                                f"d={d} cut={cut} r={r} {idx}->{s}: {c}"
                            )
    return {
        "max_total": max_total,
        "canonical_offdiag_violations": offdiag,
        "pairing_violations": pairing,
        "split_violations": split_bad,
    }


def write(name: str, text: str) -> None:
    with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {name} ({len(text)} bytes)")


def main_regen() -> None:
    for name, argv in CLI_CASES.items():
        write(name, run_cli(argv))
    write("values.json", json.dumps(library_values(), indent=2) + "\n")
    write(
        "positivity_total6.json",
        json.dumps(positivity_summary(6), indent=2) + "\n",
    )


if __name__ == "__main__":
    main_regen()
