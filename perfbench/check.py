"""Reference checks for every output the benchmark times.

The checks are written against the JSON and bytes the program emits and
never import qsl2, so a fault in the package cannot hide itself by
also breaking its own checker.  `self_test` feeds each check a clean
input and a faulty one (one coefficient changed, one byte changed, one
check fewer); the benchmark runs it at the start of every run and counts
a check that misses a fault as a failed operation.

Run it alone from the repository root:

    python3 perfbench/check.py
"""

from __future__ import annotations

import ast
import copy
import hashlib
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_digest(obj: dict) -> str:
    """Digest of a canonical table in its `to_json_obj` form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode())


def golden_cases(root: str) -> dict[tuple[str, ...], str]:
    """argv -> golden file name, read from the CLI_CASES literal in
    tests/golden/regenerate.py without running that script."""
    path = os.path.join(root, "tests", "golden", "regenerate.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "CLI_CASES" for t in node.targets)
        ):
            cases = ast.literal_eval(node.value)
            return {tuple(argv): name for name, argv in cases.items()}
    raise ValueError(f"no CLI_CASES literal in {path}")


# -- canonical tables -------------------------------------------------------------


def _below(s: tuple[int, ...], r: tuple[int, ...]) -> bool:
    """s lies in the closure of r: every prefix sum of s is at least
    the matching prefix sum of r."""
    acc_s = acc_r = 0
    for sk, rk in zip(s, r):
        acc_s += sk
        acc_r += rk
        if acc_s < acc_r:
            return False
    return True


def canonical_table_problems(
    obj: dict, d: tuple[int, ...], r: int, digest: str | None
) -> list[str]:
    """Every way the table misses the canonical-basis contract: one row
    per level-r index, diagonal 1, off-diagonal coefficients in
    q^-1 Z>=0[q^-1] supported strictly below in the closure order, and
    (when given) the digest recorded at the reference commit."""
    problems: list[str] = []
    try:
        if obj["d"] != list(d) or obj["r"] != r:
            return [f"table is for d={obj['d']} r={obj['r']}, wanted d={list(d)} r={r}"]
        want = {
            idx
            for idx in itertools.product(*(range(dk + 1) for dk in d))
            if sum(idx) == r
        }
        got = [tuple(row["r_index"]) for row in obj["rows"]]
        if len(got) != len(want) or set(got) != want:
            problems.append(f"{len(got)} rows, wanted the {len(want)} level-{r} indices")
        for row in obj["rows"]:
            ridx = tuple(row["r_index"])
            terms = {tuple(t["r"]): t["coeff"] for t in row["terms"]}
            if terms.get(ridx) != [[0, "1"]]:
                problems.append(f"b{ridx}: diagonal {terms.get(ridx)} is not 1")
            for s, coeff in terms.items():
                if s == ridx:
                    continue
                if not coeff or any(h >= 0 or h % 2 or int(c) <= 0 for h, c in coeff):
                    problems.append(f"b{ridx} at {s}: {coeff} not in q^-1 Z>=0[q^-1]")
                if len(s) != len(d) or sum(s) != r or not _below(s, ridx):
                    problems.append(f"b{ridx} at {s}: outside the lower closure")
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"malformed table: {exc!r}"]
    if digest is not None and table_digest(obj) != digest:
        problems.append("table digest differs from the recorded table")
    return problems


# -- verify results -------------------------------------------------------------


def verify_problems(suites: list[dict], recorded: dict[str, int]) -> dict[str, list[str]]:
    """Problems per suite name: every recorded suite must run, in the
    recorded order, with no failures and no fewer checks than recorded.
    A suite that did not run is reported under its name."""
    problems: dict[str, list[str]] = {name: [] for name in recorded}
    seen = [s.get("name") for s in suites]
    if seen != list(recorded):
        for name in recorded:
            if name not in seen:
                problems[name].append("suite did not run")
        problems.setdefault("order", []).append(f"suites ran as {seen}")
    for s in suites:
        name = s.get("name")
        out = problems.setdefault(str(name), [])
        if name not in recorded:
            out.append("unexpected suite")
            continue
        if s.get("failures") != 0 or s.get("truncated"):
            out.append(f"{s.get('failures')} failures")
        if not isinstance(s.get("checks"), int) or s["checks"] < recorded[name]:
            out.append(f"{s.get('checks')} checks, recorded {recorded[name]}")
    return {name: p for name, p in problems.items() if p}


# -- CLI outputs ----------------------------------------------------------------


def cli_problems(stdout: bytes, returncode: int, expected: bytes | str) -> list[str]:
    """expected is the golden file's bytes, or the sha256 of the output
    recorded at the reference commit when no golden file exists."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if isinstance(expected, bytes):
        if stdout != expected:
            problems.append("stdout differs from the golden file")
    elif sha256(stdout) != expected:
        problems.append("stdout differs from the recorded output")
    return problems


# -- self-test -------------------------------------------------------------------


def self_test(root: str) -> list[str]:
    """Each entry names a check that accepted a fault or rejected a
    clean input; an empty list means the checker works."""
    errors: list[str] = []
    golden_dir = os.path.join(root, "tests", "golden")

    with open(os.path.join(golden_dir, "canon_d2-2_r2.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    digest = table_digest(table)
    if canonical_table_problems(table, (2, 2), 2, digest):
        errors.append("canonical check rejected the golden (2,2) table")
    # The first off-diagonal coefficient of the last row, changed two ways:
    # a value still in q^-1 Z>=0[q^-1] (only the digest can see it) and
    # a negative one (the structural check must see it without a digest).
    row = table["rows"][-1]
    term = next(t for t in row["terms"] if t["r"] != row["r_index"])
    for label, value, with_digest in (
        ("bumped coefficient", str(int(term["coeff"][0][1]) + 1), True),
        ("negated coefficient", str(-int(term["coeff"][0][1])), False),
    ):
        bad = copy.deepcopy(table)
        bad_row = bad["rows"][-1]
        bad_term = next(t for t in bad_row["terms"] if t["r"] != bad_row["r_index"])
        bad_term["coeff"][0][1] = value
        if not canonical_table_problems(bad, (2, 2), 2, digest if with_digest else None):
            errors.append(f"canonical check accepted a table with a {label}")

    cases = golden_cases(root)
    name = cases[("canon", "--d", "2,2", "--r", "2")]
    with open(os.path.join(golden_dir, name), "rb") as fh:
        good = fh.read()
    if cli_problems(good, 0, good) or cli_problems(good, 0, sha256(good)):
        errors.append("CLI check rejected the golden output")
    flipped = good[:-2] + bytes([good[-2] ^ 1]) + good[-1:]
    if not cli_problems(flipped, 0, good) or not cli_problems(flipped, 0, sha256(good)):
        errors.append("CLI check accepted an output one byte off its golden file")
    if not cli_problems(good, 1, good):
        errors.append("CLI check accepted a nonzero exit code")

    recorded = load_refs()["verify_sweep"]["checks"]
    clean = [{"name": n, "checks": c, "failures": 0, "truncated": False} for n, c in recorded.items()]
    if verify_problems(clean, recorded):
        errors.append("verify check rejected the recorded result")
    short = copy.deepcopy(clean)
    short[0]["checks"] -= 1
    if not verify_problems(short, recorded):
        errors.append("verify check accepted a suite with one check fewer")
    if not verify_problems(clean[1:], recorded):
        errors.append("verify check accepted a result with a suite missing")
    return errors


if __name__ == "__main__":
    repo = os.path.dirname(HERE)
    found = self_test(repo)
    for line in found:
        print(f"FAIL {line}")
    print("checker self-test:", "failed" if found else "every injected fault was caught")
    sys.exit(1 if found else 0)
