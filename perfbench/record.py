"""Regenerate perfbench/refs.json, the reference outputs the benchmark
checks against, from the current checkout:

    python3 perfbench/record.py

It records the digest and entry count of the canon_fine table, the
check count of each verify suite at max total 6, and the sha256 of
every cli_mix request whose output has no golden file.  The recorded
values are a contract like the golden files: regenerate only when an
output changes on purpose, and review the diff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import check
import run


def _child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, run.CHILD, *args], cwd=run.ROOT, env=env, capture_output=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"{args} exited {proc.returncode}: {proc.stderr.decode()}")
    return proc


def main() -> None:
    env = run.child_env()
    os.makedirs(run.OUT_ROOT, exist_ok=True)

    table_path = os.path.join(run.OUT_ROOT, "record-table.json")
    d = ",".join(map(str, run.CANON_D))
    _child(["canon", "--d", d, "--r", str(run.CANON_R), "--table", table_path], env)
    with open(table_path, encoding="utf-8") as fh:
        table = json.load(fh)
    problems = check.canonical_table_problems(table, run.CANON_D, run.CANON_R, None)
    if problems:
        raise SystemExit(f"canon_fine table fails its checks: {problems[:5]}")
    canon = {
        "d": list(run.CANON_D),
        "r": run.CANON_R,
        "rows": len(table["rows"]),
        "coefficients": sum(len(row["terms"]) for row in table["rows"]),
        "digest": check.table_digest(table),
    }

    proc = _child(["verify", "--max-total", str(run.VERIFY_MAX_TOTAL)], env)
    suites = json.loads(proc.stdout.decode().splitlines()[-1])["suites"]
    if any(s["failures"] or s["truncated"] for s in suites):
        raise SystemExit(f"verify at max total {run.VERIFY_MAX_TOTAL} failed: {suites}")
    verify = {
        "max_total": run.VERIFY_MAX_TOTAL,
        "checks": {s["name"]: s["checks"] for s in suites},
    }

    golden = check.golden_cases(run.ROOT)
    outputs = {}
    for argv in run.all_cli_requests():
        if argv not in golden:
            proc = _child(["cli", "--", *argv], env)
            outputs[" ".join(argv)] = check.sha256(proc.stdout)

    refs = {"canon_fine": canon, "verify_sweep": verify, "cli_mix": {"outputs": outputs}}
    with open(check.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")
    print(f"wrote {check.REFS_PATH}: {len(outputs)} CLI outputs,"
          f" {sum(verify['checks'].values())} verify checks")


if __name__ == "__main__":
    main()
