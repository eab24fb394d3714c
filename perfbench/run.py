#!/usr/bin/env python3
"""The qsl2 benchmark: exact tables, timed from outside and checked.

Run from the repository root, standard library only:

    python3 perfbench/run.py --workload canon_fine --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload once, one metric table

Every unit of work runs the checkout's src/qsl2 in a fresh interpreter
(perfbench/child.py), one child at a time, with no threads.  The
workloads (why each was chosen is in BENCHMARK.json and baseline.json):

  canon_fine    cold canonical_basis((1,)*9, 4): Psi columns and the
                table solve (L2, L3) on many small Laurent coefficients.
  verify_sweep  run_all(6), the seven property suites in shipped order:
                quantum constants, module actions, braiding (L0, L1, L4).
  cli_mix       a closed loop, one client, of cold CLI requests over all
                eight subcommands at small sizes, drawn from --seed, with
                a fresh --cache-dir per session (L5 and the disk cache).

A workload is a loop of units (a solve, a sweep, a session of requests).
The number of units follows from --seconds and each unit's cost at the
reference commit, so a run does fixed work and a faster program finishes
sooner.  Every timed output is checked (perfbench/check.py); a wrong
output, a nonzero exit, an exception or a missing check is a failed
operation.  Times of the compute-bound workloads are scaled by a speed
probe (see PROBE_REF_S); perfbench/baseline.json defines every metric.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one unit
untraced and then again with spans around each layer's public functions
(perfbench/tracer.py) and prints the per-layer metrics, including the
tracing overhead.  The last stdout line is the result object; the line
before it stamps the run (source digest, Python, cores, seed, workload
parameters, speed scale).  Results and span files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# The whole run must end well inside 180 s; a child that would cross
# this line is killed and counted as failed.
DEADLINE_S = 170.0
# Set-up is timed in this many fresh interpreters, spread in slots
# before, between and after the units so that the samples do not all
# fall into one burst of machine noise, and reported as the median.
N_SETUP = 12

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("checks_per_s", "checks/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)

CANON_D = (1,) * 9
CANON_R = 4
VERIFY_MAX_TOTAL = 6
# What set-up means per workload: the import plus the quasi-R solve
# the workload needs, or the import of qsl2.cli.
SETUP_ARGS = {
    "canon_fine": ["--kappa", str(sum(CANON_D) // 2)],
    "verify_sweep": ["--kappa", str(VERIFY_MAX_TOTAL // 2)],
    "cli_mix": ["--cli"],
}

# cli_mix catalogue.  Each template is one request shape; a variant picks
# one option from each group.  Variants of a template cost about the same,
# so the seed changes the order and the formats but not the work mix.
TABLE_JSON = ((), ("--format", "json"))
TABLE_JSON_DOT = ((), ("--format", "json"), ("--format", "dot"))
SIGN = (("--sign", "plus"), ("--sign", "minus"))
CAN = (("--basis", "canonical"),)
BASIS = (("--basis", "standard"),) + CAN
CATALOGUE = (
    # (uses the table cache, base argv, option groups)
    (True, ("canon", "--d", "2,2", "--r", "2"), (TABLE_JSON,)),
    (True, ("canon", "--d", "1,1,1", "--r", "1"), (TABLE_JSON,)),
    (True, ("canon", "--d", "3,3", "--r", "3"), (TABLE_JSON,)),
    (True, ("canon", "--d", "1,1,1,1,1,1", "--r", "3"), (TABLE_JSON,)),
    (True, ("split", "--d", "1,1,1", "--at", "1", "--r", "1"), (TABLE_JSON,)),
    (True, ("split", "--d", "2,2", "--at", "1", "--r", "2"), (TABLE_JSON,)),
    (True, ("split", "--d", "1,1,1,1", "--at", "2", "--r", "2"), (TABLE_JSON,)),
    (True, ("embed", "--d", "2", "--basis", "canonical"), (TABLE_JSON,)),
    (True, ("embed", "--d", "2,1"), (TABLE_JSON,)),
    (True, ("embed", "--d", "2,2"), (BASIS, TABLE_JSON)),
    (True, ("inner", "--d", "2,2", "--r", "2", "--basis", "canonical"), (TABLE_JSON,)),
    (True, ("inner", "--d", "3,3", "--r", "3", "--basis", "canonical"), (TABLE_JSON,)),
    (False, ("inner", "--d", "4", "--r", "2"), (TABLE_JSON,)),
    (False, ("rmat", "--d", "1,1", "--word", "1"), (SIGN, CAN, TABLE_JSON)),
    (False, ("rmat", "--d", "1,1", "--word", "1", "--sign", "plus", "--basis", "standard"), (TABLE_JSON,)),
    (False, ("rmat", "--d", "2,2", "--word", "1"), (SIGN, CAN, TABLE_JSON)),
    (False, ("rmat", "--d", "1,1,1", "--word", "1,2,1"), (SIGN, CAN, TABLE_JSON)),
    (False, ("bar", "--d", "1,1", "--vector", "0,1"), (TABLE_JSON,)),
    (False, ("bar", "--d", "2,2,2", "--vector", "0,1,2"), (TABLE_JSON,)),
    (False, ("orbits", "--d", "2,2", "--r", "2"), (TABLE_JSON_DOT,)),
    (False, ("orbits", "--d", "3,3", "--r", "3"), (TABLE_JSON_DOT,)),
    (False, ("verify", "--max-total", "3"), ()),
)
SUBCOMMANDS = ("canon", "rmat", "split", "bar", "embed", "inner", "orbits", "verify")
# Every cache-using template runs twice per session: once against the
# fresh cache (a miss) and once after (a hit).
SESSION_LEN = len(CATALOGUE) + sum(cached for cached, _, _ in CATALOGUE)
MIN_REQUESTS = 100  # p90 needs ten samples above it

# canon_fine and verify_sweep are Python computation, and on a shared
# machine their times move with its speed (by up to 1.5x between runs
# on a 2-core shared virtual machine).  Their end-to-end times are scaled by PROBE_REF_S over the
# median time of a fixed pure-Python probe that every set-up child runs
# before importing qsl2, i.e. they read as seconds on a machine where
# the probe takes 100 ms.  cli_mix is dominated by interpreter start-up,
# which the probe does not track, so its times are reported as measured.
PROBE_REF_S = 0.1
SCALED = ("canon_fine", "verify_sweep")

# Cost of one unit at the reference commit (2-core x86-64, Python 3.11),
# used only to turn --seconds into a fixed number of units.
UNIT_COST_S = {"canon_fine": 8.5, "verify_sweep": 31.0, "cli_mix": 5.0}


def variants(base: tuple, groups: tuple) -> list[tuple[str, ...]]:
    out = [base]
    for group in groups:
        out = [argv + choice for argv in out for choice in group]
    return out


def all_cli_requests() -> list[tuple[str, ...]]:
    return [v for _, base, groups in CATALOGUE for v in variants(base, groups)]


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile when at least ten samples lie above it;
    with fewer samples the tail is not resolved and this is the median."""
    if len(values) * (100 - pct) < 1000:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's src/ on the path and
    nothing that would redirect the cache or skip bytecode caching."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "QSL2_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Fixed string hashing removes one source of run-to-run spread.
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """One invocation: counts operations and failures, spawns children."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.calib: list[float] = []
        self.peak_rss_mb = 0.0
        self.out = os.path.join(OUT_ROOT, workload)
        os.makedirs(self.out, exist_ok=True)
        self.refs = check.load_refs()
        self.env = child_env()

    def op(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def spawn(self, args: list[str]):
        """(CompletedProcess or None on timeout, wall seconds)."""
        timeout = DEADLINE_S - (time.perf_counter() - self.t0)
        start = time.perf_counter()
        if timeout <= 1:
            return None, 0.0
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start
        return proc, time.perf_counter() - start

    def child(self, args: list[str], what: str, extra_check=None):
        """Run a child that prints one JSON object last on stdout; the
        result is counted as one operation together with extra_check."""
        proc, wall = self.spawn(args)
        problems: list[str] = []
        result = None
        if proc is None:
            problems.append("out of time")
        elif proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"exit code {proc.returncode} {tail}")
        else:
            try:
                result = json.loads(proc.stdout.decode().splitlines()[-1])
            except (ValueError, IndexError) as exc:
                problems.append(f"no result line: {exc!r}")
        if result is not None:
            self.peak_rss_mb = max(self.peak_rss_mb, result["maxrss_mb"])
            if extra_check is not None:
                problems += extra_check(result)
        self.op(problems, what)
        return (result if not problems else None), wall

    def spans_path(self, spans_dir: str | None, name: str) -> list[str]:
        return ["--spans", os.path.join(spans_dir, f"{name}.spans")] if spans_dir else []

    # -- set-up ---------------------------------------------------------------

    def setup_slot(self, spans_dir: str | None) -> None:
        for _ in range(-(-N_SETUP // (self.units() + 1))):
            i = len(self.setup)
            res, _ = self.child(
                ["setup", *SETUP_ARGS[self.workload], *self.spans_path(spans_dir, f"setup{i}")],
                f"set-up {i}",
            )
            if res is not None:
                self.setup.append(res["setup_s"])
                self.calib.append(res["calib_s"])

    # -- workloads ------------------------------------------------------------

    def units(self) -> int:
        # A traced run measures one unit per pass, so that its counts read
        # per solve, per sweep and per session.
        if self.trace:
            return 1
        units = max(1, round(self.seconds / UNIT_COST_S[self.workload]))
        if self.workload == "cli_mix":
            units = max(units, -(-MIN_REQUESTS // SESSION_LEN))
        return units

    def canon_fine(self, spans_dir: str | None) -> dict:
        ref = self.refs["canon_fine"]
        table_path = os.path.join(self.out, "table.json")

        def check_table(_result) -> list[str]:
            try:
                with open(table_path, encoding="utf-8") as fh:
                    obj = json.load(fh)
            except (OSError, ValueError) as exc:
                return [f"no readable table: {exc!r}"]
            return check.canonical_table_problems(obj, CANON_D, CANON_R, ref["digest"])

        solve, latency, coeffs = [], [], ref["coefficients"]
        for i in range(self.units()):
            self.setup_slot(spans_dir)
            if os.path.exists(table_path):
                os.unlink(table_path)
            args = ["canon", "--d", ",".join(map(str, CANON_D)), "--r", str(CANON_R),
                    "--table", table_path, *self.spans_path(spans_dir, f"canon{i}")]
            res, wall = self.child(args, f"solve {i}", check_table)
            if res is not None:
                solve.append(res["solve_s"])
                latency.append(wall)
        self.setup_slot(spans_dir)
        return {
            "solve": solve,
            "rate": [coeffs / s for s in solve],
            "latency": latency,
            "params": {"d": list(CANON_D), "r": CANON_R, "solves": self.units(),
                       "seed_used": False},
        }

    def verify_sweep(self, spans_dir: str | None) -> dict:
        recorded = self.refs["verify_sweep"]["checks"]
        solve, rate, latency, suites = [], [], [], {}
        for i in range(self.units()):
            self.setup_slot(spans_dir)
            args = ["verify", "--max-total", str(VERIFY_MAX_TOTAL),
                    *self.spans_path(spans_dir, f"verify{i}")]
            proc_res, wall = self.child(args, f"sweep {i}")
            found = (
                check.verify_problems(proc_res["suites"], recorded)
                if proc_res is not None
                else {name: ["sweep did not finish"] for name in recorded}
            )
            for name in list(recorded) + [n for n in found if n not in recorded]:
                self.op(found.get(name, []), f"sweep {i} suite {name}")
            if proc_res is not None and not found:
                total = sum(s["checks"] for s in proc_res["suites"])
                solve.append(proc_res["run_s"])
                rate.append(total / proc_res["run_s"])
                latency.append(wall)
                suites = {s["name"]: s["checks"] for s in proc_res["suites"]}
        self.setup_slot(spans_dir)
        return {
            "solve": solve,
            "rate": rate,
            "latency": latency,
            "suite_checks": suites,
            "params": {"max_total": VERIFY_MAX_TOTAL, "sweeps": self.units(),
                       "seed_used": False},
        }

    def cli_mix(self, spans_dir: str | None) -> dict:
        golden = check.golden_cases(ROOT)
        digests = self.refs["cli_mix"]["outputs"]
        golden_dir = os.path.join(ROOT, "tests", "golden")
        rng = random.Random(f"cli_mix:{self.seed}")
        sessions = self.units()
        requests = []  # (subcommand, cache kind or None, latency_s, import_s, main_s, session)
        files_written = 0
        n = 0
        for k in range(sessions):
            self.setup_slot(spans_dir)
            cache_dir = os.path.join(self.out, f"cache{k}")
            shutil.rmtree(cache_dir, ignore_errors=True)
            order = [t for t in CATALOGUE for _ in range(2 if t[0] else 1)]
            rng.shuffle(order)
            seen = set()
            for cached, base, groups in order:
                argv = rng.choice(variants(base, groups))
                name = golden.get(argv)
                if name is not None:
                    with open(os.path.join(golden_dir, name), "rb") as fh:
                        expected = fh.read()
                else:
                    expected = digests.get(" ".join(argv), "no recorded output")
                kind = None
                if cached:
                    kind = "hit" if base in seen else "miss"
                    seen.add(base)
                    argv = argv + ("--cache-dir", cache_dir)
                before = len(_json_files(cache_dir))
                proc, wall = self.spawn(["cli", *self.spans_path(spans_dir, f"req{n}"), "--", *argv])
                n += 1
                if proc is None:
                    self.op(["out of time"], f"request {' '.join(argv)}")
                    continue
                problems = check.cli_problems(proc.stdout, proc.returncode, expected)
                try:
                    timing = json.loads(proc.stderr.decode().splitlines()[-1])
                except (ValueError, IndexError):
                    problems.append("no timing line")
                if self.op(problems, f"request {' '.join(argv)}"):
                    self.peak_rss_mb = max(self.peak_rss_mb, timing["maxrss_mb"])
                    files_written += len(_json_files(cache_dir)) - before
                    requests.append(
                        (argv[0], kind, wall, timing["setup_s"], timing["solve_s"], k)
                    )
        self.setup_slot(spans_dir)
        latency = [r[2] for r in requests]
        return {
            # In-process time of every request of a session, summed: each
            # session runs the same templates, so the sums compare.
            "solve": [sum(r[4] for r in requests if r[5] == k) for k in range(sessions)],
            "rate": [len(requests) / sum(latency)] if requests else [],
            "latency": latency,
            "requests": requests,
            "files_written": files_written,
            "params": {"sessions": sessions, "requests_per_session": SESSION_LEN,
                       "requests": len(requests), "templates": len(CATALOGUE),
                       "seed_used": True},
        }

    def run_pass(self, spans_dir: str | None) -> dict:
        start = time.perf_counter()
        # One untimed child first, so that compiling bytecode in a fresh
        # checkout is not timed as set-up.
        self.child(["setup", *SETUP_ARGS[self.workload]], "set-up warm-up")
        self.setup = []
        self.calib = []
        self.peak_rss_mb = 0.0
        samples = getattr(self, self.workload)(spans_dir)
        samples["setup"] = self.setup
        samples["calib"] = self.calib
        samples["peak_rss_mb"] = self.peak_rss_mb
        samples["wall_s"] = time.perf_counter() - start
        return samples


def _json_files(path: str) -> list[str]:
    try:
        return [f for f in os.listdir(path) if f.endswith(".json")]
    except FileNotFoundError:
        return []


def speed_scale(workload: str, samples: dict) -> float:
    if workload not in SCALED:
        return 1.0
    return PROBE_REF_S / statistics.median(samples["calib"])


def end_to_end(samples: dict, scale: float) -> dict[str, float]:
    lat_ms = [x * 1000 * scale for x in samples["latency"]]
    return {
        "setup_s": statistics.median(samples["setup"]) * scale,
        "solve_s": statistics.median(samples["solve"]) * scale,
        "checks_per_s": statistics.median(samples["rate"]) / scale,
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": percentile(lat_ms, 90),
        "wall_s": samples["wall_s"] * scale,
        "peak_rss_mb": samples["peak_rss_mb"],
    }


def per_layer_specs(suites: list[str]) -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in print order."""
    def calls_and_self(layer: str) -> list[tuple[str, str, str]]:
        return [
            (f"{layer}.{fn}.{field}", unit, "lower")
            for fn in tracer.SPANNED[layer]
            for field, unit in (("calls", "count"), ("self_s", "s"))
        ]

    specs = calls_and_self("qring")
    specs += [(f"qring.{op}.calls", "count", "lower") for op in tracer.LAURENT_OPS]
    specs += calls_and_self("modules")
    specs += [(f"orbits.{fn}.calls", "count", "lower") for fn in tracer.COUNTED["orbits"]]
    specs += calls_and_self("rmatrix")
    specs += [
        ("canonical.bar_involution.calls", "count", "lower"),
        ("canonical.bar_involution.self_s", "s", "lower"),
        ("canonical.canonical_basis.calls", "count", "lower"),
        ("canonical.canonical_basis.first_call_s", "s", "lower"),
        ("canonical.compute_quasi_r.s", "s", "lower"),
        ("canonical.split_expand.self_s", "s", "lower"),
        ("canonical.embed_refine.self_s", "s", "lower"),
        ("canonical.canonical_coords.self_s", "s", "lower"),
    ]
    for suite in suites:
        specs += [(f"verify.{suite}.s", "s", "lower"), (f"verify.{suite}.checks", "count", "higher")]
    specs.append(("cli.import_s", "s", "lower"))
    specs += [(f"cli.{sub}.p50_ms", "ms", "lower") for sub in SUBCOMMANDS]
    specs += [
        ("cli.cache_hit.p50_ms", "ms", "lower"),
        ("cli.cache_miss.p50_ms", "ms", "lower"),
        ("cli.cache.files_written", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("fail_ratio", "ratio", "lower"),
    ]
    return specs


def per_layer(run: Run, plain: dict, traced: dict, spans: dict) -> dict[str, float]:
    """Span metrics from the traced pass; CLI latencies, verify check
    counts and the overhead's untraced side from the untraced pass.
    A layer the workload never enters reads 0."""
    values: dict[str, float] = {}
    for name, _unit, _better in per_layer_specs(list(run.refs["verify_sweep"]["checks"])):
        head, _, field = name.rpartition(".")
        values[name] = spans.get(head, {}).get(field, 0)
    for suite, checks in plain.get("suite_checks", {}).items():
        values[f"verify.{suite}.checks"] = checks
    requests = plain.get("requests", [])

    def p50_ms(rows) -> float:
        lat = [r[2] * 1000 for r in rows]
        return statistics.median(lat) if lat else 0

    if requests:
        values["cli.import_s"] = statistics.median(r[3] for r in requests)
        for sub in SUBCOMMANDS:
            values[f"cli.{sub}.p50_ms"] = p50_ms([r for r in requests if r[0] == sub])
        values["cli.cache_hit.p50_ms"] = p50_ms([r for r in requests if r[1] == "hit"])
        values["cli.cache_miss.p50_ms"] = p50_ms([r for r in requests if r[1] == "miss"])
        values["cli.cache.files_written"] = plain["files_written"]
    traced_wall = traced["wall_s"] * speed_scale(run.workload, traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain["wall_s"] * speed_scale(run.workload, plain)
    values["fail_ratio"] = run.failed / max(1, run.attempted)
    return values


def stamp(run: Run, params: dict) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qsl2")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "params": params,
    }


def _git_sha() -> str | None:
    """HEAD's commit read from .git without running git; None outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    run = Run(workload, seed, seconds, trace)
    errors = check.self_test(ROOT)
    run.op(errors, "checker self-test")
    plain = run.run_pass(None)
    scale = speed_scale(workload, plain) if plain["calib"] else 1.0
    if not trace:
        values = end_to_end(plain, scale) if run.failed == 0 else {}
        units = dict(END_TO_END)
    else:
        spans_dir = os.path.join(run.out, "trace")
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
        traced = run.run_pass(spans_dir)
        files = sorted(os.path.join(spans_dir, f) for f in os.listdir(spans_dir))
        specs = per_layer_specs(list(run.refs["verify_sweep"]["checks"]))
        values = per_layer(run, plain, traced, tracer.aggregate(files)) if run.failed == 0 else {}
        units = {name: unit for name, unit, _ in specs}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    info = stamp(run, plain["params"])
    info["fail_ratio"] = run.failed / run.attempted
    info["speed_scale"] = scale
    info["problems"] = run.problems[:20]
    with open(os.path.join(run.out, f"result-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"stamp": info, "result": result, "samples": plain}, fh, indent=1)
    for line in run.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "canon_fine", "verify_sweep", "cli_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for need in (os.path.join(ROOT, "src", "qsl2", "__init__.py"),
                 os.path.join(ROOT, "tests", "golden", "regenerate.py")):
        if not os.path.exists(need):
            print(f"perfbench: {os.path.relpath(need, ROOT)} is missing; run from a"
                  " qsl2 checkout", file=sys.stderr)
            return 2
    workloads = ["canon_fine", "verify_sweep", "cli_mix"] if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        info, result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        results[workload] = result
        for name, m in result["metrics"].items():
            if name != "fail_ratio":
                print(f"{workload:<13} {name:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:<13} {'fail_ratio':<40} {info['fail_ratio']:>14.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} operations)")
        print(json.dumps(info))
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
