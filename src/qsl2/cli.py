"""Command-line surface.

Subcommands compute and print canonical tables, braiding matrices,
split expansions, bar images, refinement embeddings, Gram matrices,
and orbit posets, plus `verify` for the property suites.  Output is
either a stable JSON document (byte-identical across runs) or a human
table, and one emit path, _emit, makes that choice for every
subcommand but `verify` and `orbits --format dot`; a braiding or
embedding reaches it through _emit_map, which builds both forms from
one matrix_in_basis call.  Exit codes are 0 on success, 1 when a
computation or a property check fails, and 2 on bad input; a reader
that closes the pipe early is no failure.

Every request is a fresh process, so the parser is built for the one
subcommand that argv names first, from the _COMMANDS table, and for all
eight only on help or a missing or unknown command.  Both print the
same help, usage lines and errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import orbits
from .canonical import (
    bar_involution,
    canonical_basis,
    embed_refine,
    split_expand,
)
from .errors import AlgebraError, NonReducedWordError, PurityViolationError
from .modules import ModuleVector, _JsonParts, enumerate_basis, format_index, inner_product
from .qring import ONE, ZERO
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


_JSON_BLOCK = 1 << 16
_encode_str = json.encoder.encode_basestring_ascii


def _scalar_json(v) -> str | None:
    """The JSON text of an int or a str, or None for anything else."""
    t = type(v)
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _encode_str(v)
    return None


def _leaf_json(v: list, depth: int, nested: bool = True) -> str | None:
    """The indented text, its bracket opening at depth, of a list of
    scalars or, when nested, of scalar lists (a coefficient's pairs, an
    index); None for any other list."""
    if not v:
        return "[]"
    texts = []
    for x in v:
        text = _scalar_json(x)
        if text is None and nested and type(x) is list:
            text = _leaf_json(x, depth + 1, False)
        if text is None:
            return None
        texts.append(text)
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(texts) + inner[:-2] + "]"


def _emit_json(obj) -> None:
    """Write json.dumps(obj, indent=2) and a newline to stdout through a
    writer of its own, which takes only dicts with str keys, lists, str
    and int (anything else is a TypeError).  Each list of scalars or of
    scalar lists, such as a coefficient's pairs or an index, is a leaf:
    its text is formatted once per (object, depth) in a call, so a leaf
    the document shares costs one encoding at each depth it appears at.
    Dicts and other lists are rebuilt around those texts every time and
    never memoized.  The text goes out in writes of about _JSON_BLOCK
    characters, each overrunning the block by at most its last piece."""
    write, block, leaves = sys.stdout.write, [], {}
    size = 0

    def put(text: str) -> None:
        nonlocal size
        block.append(text)
        size += len(text)
        if size >= _JSON_BLOCK:
            write("".join(block))
            block.clear()
            size = 0

    def value(v, depth: int) -> None:
        t = type(v)
        if t is list:
            key = id(v), depth
            text = leaves.get(key) or _leaf_json(v, depth)
            if text is not None:
                leaves[key] = text
                put(text)
                return
            inner = "\n" + "  " * (depth + 1)
            sep = "[" + inner
            for x in v:
                put(sep)
                value(x, depth + 1)
                sep = "," + inner
            put(inner[:-2] + "]")
        elif t is dict:
            if not v:
                put("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            sep = "{" + inner
            for k, x in v.items():
                # a key that is not a str is a TypeError of the encoder
                put(sep + _encode_str(k) + ": ")
                value(x, depth + 1)
                sep = "," + inner
            put(inner[:-2] + "}")
        else:
            text = _scalar_json(v)
            if text is None:
                raise TypeError(f"{t.__name__} is not written as JSON here")
            put(text)

    value(obj, 0)
    write("".join(block) + "\n")


def _emit(args: argparse.Namespace, obj, text) -> None:
    """The one format dispatch: write the JSON document obj() when
    --format is json, else the table text()."""
    if args.format == "json":
        _emit_json(obj())
    else:
        sys.stdout.write(text())


def _emit_map(args: argparse.Namespace, linmap, header: str) -> None:
    """A braiding or embedding in the basis of --basis, from one
    matrix_in_basis call: a JSON document per weight level, or the header
    and a line `level r: x -> image` per source basis element."""
    basis = args.basis
    source, target = linmap.source, linmap.target
    mats = matrix_in_basis(linmap, basis)
    levels = [
        (r, enumerate_basis(target, r), enumerate_basis(source, r), mats[r])
        for r in sorted(mats)
    ]

    def obj() -> list[dict]:
        parts = _JsonParts()
        return [
            {
                "source_d": list(source),
                "target_d": list(target),
                "basis": basis,
                "level": r,
                "row_index": [parts.index(i) for i in row_idx],
                "col_index": [parts.index(j) for j in col_idx],
                "rows": [[parts.pairs(entry) for entry in row] for row in mat],
            }
            for r, row_idx, col_idx, mat in levels
        ]

    def text() -> str:
        symbol = "v" if basis == "standard" else "b"
        lines = [header]
        for r, row_idx, col_idx, mat in levels:
            for j, jdx in enumerate(col_idx):
                image = ModuleVector(
                    target, ((idx, row[j]) for idx, row in zip(row_idx, mat))
                )
                lines.append(
                    f"level {r}: {symbol}{format_index(jdx)} -> "
                    f"{image._render(symbol)}"
                )
        return "\n".join(lines) + "\n"

    _emit(args, obj, text)


# -- subcommands -----------------------------------------------------------------


def _check_positive(table) -> None:
    """Refuse a table whose rows are not those of a canonical basis: each
    diagonal entry 1 and every other coefficient in q^-1 Z_{>=0}[q^-1],
    else PurityViolationError naming the level, the row and the term."""

    def refuse(t, s, c, want: str) -> None:
        raise PurityViolationError(
            f"row b{t} of the level-{table.r} table of Lambda_{table.d} has "
            f"coefficient ({c}) at v{s}, not {want}"
        )

    for t in table.order:
        terms = table.rows[t]._terms
        if terms.get(t) != ONE:
            refuse(t, t, terms.get(t, ZERO), "1")
        for s, c in terms.items():
            if s != t and not c.is_in_qinv_z_nonneg():
                refuse(t, s, c, "in q^-1 Z_{>=0}[q^-1]")


def _cmd_canon(args: argparse.Namespace) -> int:
    table = canonical_basis(_parse_composition(args.d), args.r)
    _check_positive(table)
    _emit(args, table.to_json_obj, table.render)
    return 0


def _cmd_rmat(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    word = _parse_ints(args.word, "letter", "word")
    move = r_move(d, word, args.sign)
    header = (
        f"braiding sign={args.sign} d={format_index(d)} "
        f"word={list(word)} target={format_index(move.target)} "
        f"basis={args.basis}"
    )
    _emit_map(args, move, header)
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    table = split_expand(_parse_composition(args.d), args.at, args.r)
    _emit(args, table.to_json_obj, table.render)
    return 0


def _cmd_bar(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    try:
        idx = orbits.check_index(d, _parse_ints(args.vector, "part", "index"))
    except AlgebraError as exc:
        raise ValueError(str(exc)) from None
    image = bar_involution(ModuleVector.basis(d, idx))
    _emit(args, image.to_json_obj, lambda: str(image) + "\n")
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    m = embed_refine(d)
    header = (
        f"embedding d={format_index(d)} into "
        f"{format_index(m.target)} basis={args.basis}"
    )
    _emit_map(args, m, header)
    return 0


def _cmd_inner(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    orbits.check_level(d, args.r)
    idxs = enumerate_basis(d, args.r)
    if args.basis == "standard":
        vectors = {i: ModuleVector.basis(d, i) for i in idxs}
    else:
        vectors = dict(canonical_basis(d, args.r).rows)
    mat = [
        [inner_product(vectors[i], vectors[j]) for j in idxs] for i in idxs
    ]

    def text() -> str:
        symbol = "v" if args.basis == "standard" else "b"
        lines = [f"gram d={format_index(d)} r={args.r} basis={args.basis}"]
        for idx, row in zip(idxs, mat):
            for jdx, entry in zip(idxs, row):
                lines.append(
                    f"({symbol}{format_index(idx)}, {symbol}{format_index(jdx)})"
                    f" = {entry}"
                )
        return "\n".join(lines) + "\n"

    def obj() -> dict:
        parts = _JsonParts()
        return {
            "d": list(d),
            "level": args.r,
            "basis": args.basis,
            "index": [list(i) for i in idxs],
            "rows": [[parts.pairs(entry) for entry in row] for row in mat],
        }

    _emit(args, obj, text)
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    d = _parse_composition(args.d)
    orbits.check_level(d, args.r)
    if args.format == "dot":
        sys.stdout.write(orbits.poset_dot(d, args.r))
        return 0

    def text() -> str:
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
        return "\n".join(lines) + "\n"

    _emit(args, lambda: orbits.poset_json_obj(d, args.r), text)
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


def _arg(flag: str, **options) -> tuple[str, dict]:
    """One argument spec: add_argument(flag, **options)."""
    return flag, options


_D = _arg("--d", required=True, help="composition")
_D_EXAMPLE = _arg("--d", required=True, help="composition, e.g. 2,2")
_R = _arg("--r", type=int, required=True, help="weight level")
_AT = _arg("--at", type=int, required=True, help="cut position")
_WORD = _arg("--word", required=True, help="letters, e.g. 1,2,1")
_SIGN = _arg("--sign", choices=("plus", "minus"), default="plus")
_VECTOR = _arg("--vector", required=True, help="orbit index, e.g. 0,1")
_BASIS = _arg("--basis", choices=("standard", "canonical"), default="standard")
_FORMAT_HELP = "output format (default: table)"
_FORMAT = _arg("--format", choices=("table", "json"), default="table", help=_FORMAT_HELP)
_FORMAT_DOT = _arg(
    "--format", choices=("table", "json", "dot"), default="table", help=_FORMAT_HELP
)
# accepted so that existing invocations still run; every table is solved
_CACHE = _arg(
    "--cache-dir", default=None, help="ignored: tables are always solved, not cached"
)
_MAX_TOTAL = _arg(
    "--max-total",
    type=int,
    default=5,
    help="largest composition total to sweep (default 5)",
)

# name -> (help, handler, argument specs), in the order --help lists them
_COMMANDS = {
    "canon": ("canonical basis table", _cmd_canon, (_D_EXAMPLE, _R, _FORMAT, _CACHE)),
    "rmat": (
        "braiding matrices along a word",
        _cmd_rmat,
        (_D, _WORD, _SIGN, _BASIS, _FORMAT),
    ),
    "split": ("canonical basis under a cut", _cmd_split, (_D, _AT, _R, _FORMAT, _CACHE)),
    "bar": ("bar involution of a standard vector", _cmd_bar, (_D, _VECTOR, _FORMAT)),
    "embed": ("refinement embedding matrices", _cmd_embed, (_D, _BASIS, _FORMAT, _CACHE)),
    "inner": (
        "Gram matrix of a weight level",
        _cmd_inner,
        (_D, _R, _BASIS, _FORMAT, _CACHE),
    ),
    "orbits": ("closure poset of a weight level", _cmd_orbits, (_D, _R, _FORMAT_DOT)),
    "verify": ("run the property suites", _cmd_verify, (_MAX_TOTAL,)),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand when command is None (help, a
    missing or an unknown command), else with command alone."""
    parser = argparse.ArgumentParser(
        prog="qsl2",
        description=(
            "Exact canonical bases, bar involutions, and braiding"
            " matrices for tensor modules."
        ),
    )
    # the one-command parser names every command in its usage line, so its
    # errors read as the full parser's; the full parser keeps the default,
    # under which a bad command is reported as "argument command"
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, handler, specs = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, options in specs:
            sub.add_argument(flag, **options)
        sub.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early: no failure, and what is still
        # buffered goes to os.devnull, so the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stdout.flush()
        return 0
    except (NonReducedWordError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
