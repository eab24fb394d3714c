"""Command-line surface.

Subcommands compute and print canonical tables, braiding matrices,
split expansions, bar images, refinement embeddings, Gram matrices,
and orbit posets, plus `verify` for the property suites.  Output is
either a stable JSON document (byte-identical across runs) or a human
table; exit codes are 0 on success, 1 when a computation or a property
check fails, and 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import orbits
from .canonical import (
    bar_involution,
    canonical_basis,
    embed_refine,
    split_expand,
)
from .errors import AlgebraError, NonReducedWordError
from .modules import ModuleVector, enumerate_basis, format_index, inner_product
from .rmatrix import matrix_in_basis, r_move
from .verify import run_all

__all__ = ["main"]


def _parse_ints(text: str, item: str, what: str) -> tuple[int, ...]:
    """A comma-separated list of integers; a bad entry is reported by
    item name, 1-based position and the kind of list."""
    values = []
    for pos, part in enumerate(text.split(","), start=1):
        try:
            values.append(int(part))
        except ValueError:
            raise ValueError(
                f"{item} {pos} of {what} {text!r} is not an integer"
            ) from None
    return tuple(values)


def _parse_composition(text: str) -> tuple[int, ...]:
    return orbits.check_composition(_parse_ints(text, "part", "composition"))


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _matrix_obj(
    source_d, target_d, basis: str, level: int, row_idx, col_idx, mat
) -> dict:
    return {
        "source_d": list(source_d),
        "target_d": list(target_d),
        "basis": basis,
        "level": level,
        "row_index": [list(i) for i in row_idx],
        "col_index": [list(j) for j in col_idx],
        "rows": [[entry.to_pairs() for entry in row] for row in mat],
    }


def _render_map(header: str, linmap, basis: str) -> str:
    """Mapping-style listing, one line per source basis element."""
    mats = matrix_in_basis(linmap, basis)
    symbol = "v" if basis == "standard" else "b"
    source, target = linmap.source, linmap.target
    lines = [header]
    for r in sorted(mats):
        col_idx = enumerate_basis(source, r)
        row_idx = enumerate_basis(target, r)
        for j, jdx in enumerate(col_idx):
            image = ModuleVector(
                target, ((idx, row[j]) for idx, row in zip(row_idx, mats[r]))
            )
            rendered = image._render(symbol)
            lines.append(
                f"level {r}: {symbol}{format_index(jdx)} -> {rendered}"
            )
    return "\n".join(lines) + "\n"


def _map_json(linmap, basis: str) -> list[dict]:
    mats = matrix_in_basis(linmap, basis)
    source, target = linmap.source, linmap.target
    return [
        _matrix_obj(
            source,
            target,
            basis,
            r,
            enumerate_basis(target, r),
            enumerate_basis(source, r),
            mats[r],
        )
        for r in sorted(mats)
    ]


# -- subcommands -----------------------------------------------------------------


def _cmd_canon(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    table = canonical_basis(d, args.r)
    if args.format == "json":
        _emit_json(table.to_json_obj())
    else:
        sys.stdout.write(table.render())
    return 0


def _cmd_rmat(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    word = _parse_ints(args.word, "letter", "word")
    move = r_move(d, word, args.sign)
    if args.format == "json":
        _emit_json(_map_json(move, args.basis))
    else:
        header = (
            f"braiding sign={args.sign} d={format_index(d)} "
            f"word={list(word)} target={format_index(move.target)} "
            f"basis={args.basis}"
        )
        sys.stdout.write(_render_map(header, move, args.basis))
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    table = split_expand(d, args.at, args.r)
    if args.format == "json":
        _emit_json(table.to_json_obj())
    else:
        sys.stdout.write(table.render())
    return 0


def _cmd_bar(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    try:
        idx = orbits.check_index(d, _parse_ints(args.vector, "part", "index"))
    except AlgebraError as exc:
        raise ValueError(str(exc)) from None
    image = bar_involution(ModuleVector.basis(d, idx))
    if args.format == "json":
        _emit_json(image.to_json_obj())
    else:
        sys.stdout.write(str(image) + "\n")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    m = embed_refine(d)
    if args.format == "json":
        _emit_json(_map_json(m, args.basis))
    else:
        header = (
            f"embedding d={format_index(d)} into "
            f"{format_index(m.target)} basis={args.basis}"
        )
        sys.stdout.write(_render_map(header, m, args.basis))
    return 0


def _cmd_inner(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    orbits.check_level(d, args.r)
    idxs = enumerate_basis(d, args.r)
    if args.basis == "standard":
        vectors = {i: ModuleVector.basis(d, i) for i in idxs}
    else:
        table = canonical_basis(d, args.r)
        vectors = dict(table.rows)
    mat = [
        [inner_product(vectors[i], vectors[j]) for j in idxs] for i in idxs
    ]
    if args.format == "json":
        _emit_json(
            {
                "d": list(d),
                "level": args.r,
                "basis": args.basis,
                "index": [list(i) for i in idxs],
                "rows": [[entry.to_pairs() for entry in row] for row in mat],
            }
        )
    else:
        symbol = "v" if args.basis == "standard" else "b"
        lines = [f"gram d={format_index(d)} r={args.r} basis={args.basis}"]
        for i, idx in enumerate(idxs):
            for j, jdx in enumerate(idxs):
                lines.append(
                    f"({symbol}{format_index(idx)}, {symbol}{format_index(jdx)})"
                    f" = {mat[i][j]}"
                )
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    orbits.check_level(d, args.r)
    if args.format == "json":
        _emit_json(orbits.poset_json_obj(d, args.r))
    elif args.format == "dot":
        sys.stdout.write(orbits.poset_dot(d, args.r))
    else:
        lines = [f"orbit poset d={format_index(d)} r={args.r}"]
        for idx in orbits.linear_extension(d, args.r):
            lines.append(
                f"{format_index(idx)}  dim {orbits.orbit_dim(d, idx)}"
                f"  cells {orbits.cell_count(d, idx)}"
            )
        covers = orbits.covering_relations(d, args.r)
        if covers:
            lines.append("covers:")
            lines.extend(
                f"{format_index(s)} < {format_index(t)}" for s, t in covers
            )
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(args.max_total)
    total_checks = 0
    failed = False
    for res in results:
        total_checks += res.checks
        tag = "ok" if res.passed else "FAIL"
        print(
            f"suite {res.name:<10} {res.checks:>7} checks,"
            f" {len(res.failures):>3} failures  [{tag}]"
        )
        for witness in res.failures:
            print(f"  {witness}")
            failed = True
        if res.truncated:
            print("  (more failures suppressed)")
            failed = True
    if failed:
        print(f"FAILED at max total {args.max_total}")
        return 1
    print(
        f"all suites passed: {len(results)} suites,"
        f" {total_checks} checks, max total {args.max_total}"
    )
    return 0


# -- parser ------------------------------------------------------------------------


def _add_format(sub: argparse.ArgumentParser, extra: tuple[str, ...] = ()) -> None:
    sub.add_argument(
        "--format",
        choices=("table", "json") + extra,
        default="table",
        help="output format (default: table)",
    )


def _add_cache(sub: argparse.ArgumentParser) -> None:
    # accepted so that existing invocations still run; every table is solved
    sub.add_argument(
        "--cache-dir",
        default=None,
        help="ignored: tables are always solved, not cached",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl2",
        description=(
            "Exact canonical bases, bar involutions, and braiding"
            " matrices for tensor modules."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    canon = subs.add_parser("canon", help="canonical basis table")
    canon.add_argument("--d", required=True, help="composition, e.g. 2,2")
    canon.add_argument("--r", type=int, required=True, help="weight level")
    _add_format(canon)
    _add_cache(canon)
    canon.set_defaults(func=_cmd_canon)

    rmat = subs.add_parser("rmat", help="braiding matrices along a word")
    rmat.add_argument("--d", required=True, help="composition")
    rmat.add_argument("--word", required=True, help="letters, e.g. 1,2,1")
    rmat.add_argument("--sign", choices=("plus", "minus"), default="plus")
    rmat.add_argument(
        "--basis", choices=("standard", "canonical"), default="standard"
    )
    _add_format(rmat)
    rmat.set_defaults(func=_cmd_rmat)

    split = subs.add_parser("split", help="canonical basis under a cut")
    split.add_argument("--d", required=True, help="composition")
    split.add_argument("--at", type=int, required=True, help="cut position")
    split.add_argument("--r", type=int, required=True, help="weight level")
    _add_format(split)
    _add_cache(split)
    split.set_defaults(func=_cmd_split)

    bar = subs.add_parser("bar", help="bar involution of a standard vector")
    bar.add_argument("--d", required=True, help="composition")
    bar.add_argument("--vector", required=True, help="orbit index, e.g. 0,1")
    _add_format(bar)
    bar.set_defaults(func=_cmd_bar)

    embed = subs.add_parser("embed", help="refinement embedding matrices")
    embed.add_argument("--d", required=True, help="composition")
    embed.add_argument(
        "--basis", choices=("standard", "canonical"), default="standard"
    )
    _add_format(embed)
    _add_cache(embed)
    embed.set_defaults(func=_cmd_embed)

    inner = subs.add_parser("inner", help="Gram matrix of a weight level")
    inner.add_argument("--d", required=True, help="composition")
    inner.add_argument("--r", type=int, required=True, help="weight level")
    inner.add_argument(
        "--basis", choices=("standard", "canonical"), default="standard"
    )
    _add_format(inner)
    _add_cache(inner)
    inner.set_defaults(func=_cmd_inner)

    orb = subs.add_parser("orbits", help="closure poset of a weight level")
    orb.add_argument("--d", required=True, help="composition")
    orb.add_argument("--r", type=int, required=True, help="weight level")
    _add_format(orb, extra=("dot",))
    orb.set_defaults(func=_cmd_orbits)

    verify = subs.add_parser("verify", help="run the property suites")
    verify.add_argument(
        "--max-total",
        type=int,
        default=5,
        help="largest composition total to sweep (default 5)",
    )
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (NonReducedWordError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
