"""One unit of benchmark work in a fresh interpreter.

run.py starts this script with PYTHONPATH pointing at the checkout's
src/ and reads one JSON object from the last line of its stdout.  The
timed regions hold only calls into qsl2; serializing and checking the
results happen outside them (the table check runs in the parent).

    child.py setup  (--kappa N | --cli)        [--spans FILE]   (also times the probe)
    child.py canon  --d 1,1,1 --r 1 --table FILE [--spans FILE]
    child.py verify --max-total N              [--spans FILE]
    child.py cli                               [--spans FILE] -- <qsl2 argv>

`cli` does what `python -m qsl2.cli <argv>` does: stdout is the
command's own output and the exit code is the command's.  Its timings
go to the last line of stderr, which the command leaves empty when it
succeeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _setup(args) -> tuple[float, object]:
    """Import plus the quasi-R solve the workload needs; the tracer is
    installed after the import, so a traced import is not slowed."""
    t0 = time.perf_counter()
    import qsl2  # noqa: F401
    if args.cli:
        import qsl2.cli  # noqa: F401
    t1 = time.perf_counter()
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    if args.kappa is not None:
        sys.modules["qsl2"].compute_quasi_r(args.kappa)
    return (t1 - t0) + (time.perf_counter() - t2), tracer


def _calibrate() -> float:
    """Seconds for a fixed pure-Python loop that runs no qsl2 code
    (small dicts, integer arithmetic, like the Laurent kernel): a probe
    of how fast this machine runs Python right now."""
    t0 = time.perf_counter()
    total: dict[int, int] = {}
    for i in range(150_000):
        terms = {i % 7: i, (i + 3) % 11: -i}
        for h, c in terms.items():
            total[h] = total.get(h, 0) + c * 3
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """VmHWM, the peak resident set of this process image.  ru_maxrss
    would not do: Linux carries it across exec from the parent."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("unit", choices=("setup", "canon", "verify", "cli"))
    parser.add_argument("--kappa", type=int)
    parser.add_argument("--cli", action="store_true")
    parser.add_argument("--d")
    parser.add_argument("--r", type=int)
    parser.add_argument("--table")
    parser.add_argument("--max-total", type=int)
    parser.add_argument("--spans")
    own = sys.argv[1:]
    cli_argv = own[own.index("--") + 1 :] if "--" in own else []
    args = parser.parse_args(own[: len(own) - len(cli_argv) - ("--" in own)])
    if args.unit == "cli":
        args.cli, args.kappa = True, None
    elif args.unit == "canon":
        args.kappa = sum(map(int, args.d.split(","))) // 2
    elif args.unit == "verify":
        args.kappa = args.max_total // 2

    # The probe runs before qsl2 is imported, so the program cannot
    # change what it measures.
    calib_s = _calibrate() if args.unit == "setup" else None
    setup_s, tracer = _setup(args)
    result: dict = {"setup_s": setup_s}
    if calib_s is not None:
        result["calib_s"] = calib_s
    code = 0
    try:
        qsl2 = sys.modules["qsl2"]
        if args.unit == "canon":
            d = tuple(int(x) for x in args.d.split(","))
            t0 = time.perf_counter()
            table = qsl2.canonical_basis(d, args.r)
            result["solve_s"] = time.perf_counter() - t0
            with open(args.table, "w", encoding="utf-8") as fh:
                json.dump(table.to_json_obj(), fh)
        elif args.unit == "verify":
            t0 = time.perf_counter()
            suites = qsl2.run_all(args.max_total)
            result["run_s"] = time.perf_counter() - t0
            result["suites"] = [
                {
                    "name": s.name,
                    "checks": s.checks,
                    "failures": len(s.failures),
                    "truncated": s.truncated,
                }
                for s in suites
            ]
        elif args.unit == "cli":
            t0 = time.perf_counter()
            code = sys.modules["qsl2.cli"].main(cli_argv)
            sys.stdout.flush()
            result["solve_s"] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.write(args.spans)
    result["maxrss_mb"] = _peak_rss_mb()
    print(json.dumps(result), file=sys.stderr if args.unit == "cli" else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
