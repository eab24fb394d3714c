"""Command-line surface: golden outputs, byte determinism, the JSON
writer, a light import, the ignored --cache-dir option and
QSL2_CACHE_DIR variable, the one-command parser, and the exit-code
contract."""

import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys

import pytest

import qsl2.canonical as canonical_mod
import qsl2.cli as cli_mod
from qsl2.cli import main
from qsl2.errors import HalfPowerLeakError
from qsl2.verify import SuiteResult
from test_canonical import _assert_equal_values_shared

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def _load_regen():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", os.path.join(GOLDEN_DIR, "regenerate.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_REGEN = _load_regen()


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- golden comparisons ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_REGEN.CLI_CASES))
def test_cli_output_matches_golden(name, capsys):
    code, out, err = run(_REGEN.CLI_CASES[name], capsys)
    assert code == 0
    assert err == ""
    assert out == golden(name)


def test_every_format_and_basis_of_every_command_has_a_golden():
    # the choices come from the parser table, so a new command, format
    # or basis fails here until a golden file freezes its output
    covered = set()
    for argv in _REGEN.CLI_CASES.values():
        args = vars(cli_mod._build_parser(argv[0]).parse_args(argv))
        covered.add((argv[0], args.get("format"), args.get("basis")))
    missing = []
    for name, (_, _, specs) in cli_mod._COMMANDS.items():
        choices = {flag: opts["choices"] for flag, opts in specs if "choices" in opts}
        for fmt in choices.get("--format", (None,)):
            for basis in choices.get("--basis", (None,)):
                if (name, fmt, basis) not in covered:
                    missing.append((name, fmt, basis))
    assert missing == []


def test_library_values_match_golden():
    expected = golden("values.json")
    assert json.dumps(_REGEN.library_values(), indent=2) + "\n" == expected


def test_positivity_sweep_matches_golden():
    expected = golden("positivity_total6.json")
    got = json.dumps(_REGEN.positivity_summary(6), indent=2) + "\n"
    assert got == expected
    assert json.loads(expected)["canonical_offdiag_violations"] == []
    assert json.loads(expected)["pairing_violations"] == []
    assert json.loads(expected)["split_violations"] == []


# -- determinism -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, size, digest, kappas",
    [
        (
            ["bar", "--d", "10,10", "--vector", "0,10"],
            1285,
            "8fce2e8f2c7c686fb565379b989f8dd3511632edef18dda5e678bd033443ee03",
            11,
        ),
        (
            ["bar", "--d", ",".join("1" * 12), "--vector", "0,0,0,0,0,0,1,1,1,1,1,1"],
            68259,
            "32f30475c6c3de6344d507abb1eb68c28cda4bcf63ab165172b3f9096b81be8a",
            2,
        ),
    ],
    ids=["10-10-at-0-10", "1x12-at-6-ones"],
)
def test_bar_above_verify_reach_is_pinned(argv, size, digest, kappas, capsys):
    # two bar images beyond verify's compositions, pinned by size and
    # sha256 of stdout, with the number of quasi-R coefficients checked
    # on the way from cold caches: kappa_0 .. kappa_10 for the pair,
    # kappa_0 and kappa_1 for the twelve single boxes
    canonical_mod.clear_caches()
    code, out, _ = run(argv, capsys)
    assert code == 0
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
    assert len(canonical_mod._KAPPA) == kappas


def test_json_output_is_byte_identical_across_runs(capsys):
    argv = ["canon", "--d", "2,2", "--r", "2", "--format", "json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second == golden("canon_d2-2_r2.json")


def _subprocess_cli(argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qsl2.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_subprocess_entry_point_matches_golden():
    proc = _subprocess_cli(["canon", "--d", "2,2", "--r", "2"])
    assert proc.returncode == 0
    assert proc.stdout == golden("canon_d2-2_r2.txt")
    proc = _subprocess_cli(
        ["rmat", "--d", "1,1", "--word", "1", "--sign", "plus",
         "--basis", "canonical", "--format", "json"]
    )
    assert proc.returncode == 0
    assert proc.stdout == golden("rmat_d1-1_w1_plus_can.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["canon", "--d", "1,1,1,1,1,1", "--r", "3", "--format", "json"],
        ["rmat", "--d", "1,1,1", "--word", "1,2,1", "--format", "json"],
        ["canon", "--d", "1,1,1,1,1,1", "--r", "3"],
        # 541 KB, more than a pipe holds, so a write meets the closed pipe
        ["canon", "--d", "1,1,1,1,1,1,1,1", "--r", "4", "--format", "json"],
    ],
)
def test_a_reader_that_closes_the_pipe_early_is_no_failure(argv):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC_DIR))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qsl2.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_json_is_written_in_blocks(monkeypatch):
    obj = {"rows": [{"index": [i, i + 1], "terms": [[2 * i, str(-i)]]} for i in range(5000)]}
    text = json.dumps(obj, indent=2) + "\n"
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    cli_mod._emit_json(obj)
    assert out.getvalue() == text
    block = cli_mod._JSON_BLOCK
    # every write but the last fills a block and overruns it by at most
    # one encoder chunk
    assert 2 < len(out.writes) <= len(text) // block + 1
    assert all(block <= n < block + 64 for n in out.writes[:-1])
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    cli_mod._emit_json([])
    assert (out.getvalue(), out.writes) == ("[]\n", [3])


def _written_json(monkeypatch, obj) -> str:
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    cli_mod._emit_json(obj)
    monkeypatch.undo()
    return out.getvalue()


_STRINGS = [
    "", "plain", 'a "quote"', "back\\slash", "\x00\x1f\n\t\r\b\f", "é€", "\U0001d11e"
]
_INTS = [0, 7, -3, 10**40, -(10**40) + 1]


def _random_json(rng, depth):
    """A random document of dicts, lists, str and int: leaves, lists of
    scalars or of scalar lists, and deeper lists and dicts, with empty
    lists and dicts among them."""
    kind = rng.randrange(7 if depth < 5 else 4)
    if kind == 0:
        return rng.choice(_INTS)
    if kind == 1:
        return rng.choice(_STRINGS)
    if kind == 2:
        return [rng.choice(_INTS + _STRINGS) for _ in range(rng.randrange(4))]
    if kind == 3:
        size = rng.randrange(3)
        return [[rng.choice(_INTS), rng.choice(_STRINGS)] for _ in range(size)]
    if kind == 4:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    keys = rng.sample(_STRINGS, rng.randrange(4))
    return {key: _random_json(rng, depth + 1) for key in keys}


def _with_empties(depth):
    """A dict holding an empty list and an empty dict at every depth to
    depth, in dicts and in lists."""
    inner = {"list": [], "dict": {}}
    for _ in range(depth):
        inner = {"list": [], "dict": {}, "next": inner, "in a list": [[], {}, inner]}
    return inner


def test_json_writer_matches_json_dumps(monkeypatch):
    shared, pairs = [1, -2, "x"], [[-4, "1"], [0, "-12"]]
    documents = [
        [],
        {},
        [[]],
        [{}],
        5,
        "s",
        _with_empties(6),
        [_with_empties(3), [_with_empties(2)]],
        # one list object at two depths, and a scalar list shared inside
        # a list of scalar lists
        {"index": shared, "rows": [{"r_index": shared, "c": pairs}, [pairs, shared]]},
        [shared, [shared, [shared]], {"k": [shared, pairs]}],
        {key: key for key in _STRINGS},
        [_INTS, _STRINGS, [_INTS, _STRINGS]],
    ]
    rng = random.Random(29)
    documents += [_random_json(rng, 0) for _ in range(300)]
    for obj in documents:
        assert _written_json(monkeypatch, obj) == json.dumps(obj, indent=2) + "\n", obj


def test_json_writer_formats_each_leaf_once_per_depth(monkeypatch):
    # leaves are lists of scalars or of scalar lists; a list holding a
    # list of lists is rebuilt around its items' texts
    pairs, index = [[0, "1"], [4, "-2"]], [1, 2]
    deeper = [pairs]
    rows = [[pairs, deeper], [index, [5]]]
    obj = {"rows": rows, "index": index, "again": [index]}
    leaf, formatted = cli_mod._leaf_json, []

    def spy(v, depth, nested=True):
        text = leaf(v, depth, nested)
        if nested and text is not None:
            formatted.append((id(v), depth))
        return text

    monkeypatch.setattr(cli_mod, "_leaf_json", spy)
    assert _written_json(monkeypatch, obj) == json.dumps(obj, indent=2) + "\n"
    leaves = [(pairs, 3), (pairs, 4), (rows[1], 2), (index, 1), (obj["again"], 1)]
    assert sorted(formatted) == sorted((id(v), depth) for v, depth in leaves)


@pytest.mark.parametrize("bad", [True, False, None, 1.5, (1, 2)], ids=repr)
def test_json_writer_refuses_values_no_document_holds(monkeypatch, bad):
    nested = ([bad], [1, bad], [[1, bad]], [[bad], {}], {"k": bad}, [{"k": [bad]}])
    for obj in (bad, *nested):
        with pytest.raises(TypeError):
            _written_json(monkeypatch, obj)


@pytest.mark.parametrize("key", [1, None, True, 1.5, ("a",)], ids=repr)
def test_json_writer_refuses_keys_that_are_not_str(monkeypatch, key):
    for obj in ({key: 1}, [{"a": 1, key: []}], {"a": {key: "x"}}):
        with pytest.raises(TypeError):
            _written_json(monkeypatch, obj)


@pytest.mark.parametrize(
    "argv",
    [
        ["rmat", "--d", "1,1,1", "--word", "1,2,1", "--basis", "canonical"],
        ["inner", "--d", "1,1,1,1", "--r", "2"],
    ],
    ids=["rmat", "inner"],
)
def test_matrix_json_shares_equal_entries_and_indices(argv, monkeypatch):
    documents = []
    monkeypatch.setattr(cli_mod, "_emit_json", documents.append)
    assert main(argv + ["--format", "json"]) == 0
    (obj,) = documents
    levels = obj if isinstance(obj, list) else [obj]
    _assert_equal_values_shared([e for level in levels for row in level["rows"] for e in row])
    if "row_index" in levels[0]:
        _assert_equal_values_shared(
            [i for level in levels for i in level["row_index"] + level["col_index"]]
        )


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Every CLI request is a cold process, so the import stays light:
    under -S (no site packages preloading anything) importing the CLI
    must not load dataclasses, the inspect machinery it drags in, or
    typing (annotations are never evaluated, and the abstract base
    classes come from collections.abc)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, qsl2.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# -- the ignored cache options ------------------------------------------------------


def _snapshot(path):
    """Every entry under path with its bytes and modification time."""
    if path.is_file():
        return {path: (path.read_bytes(), path.stat().st_mtime_ns)}
    return {
        p: (p.read_bytes() if p.is_file() else None, p.stat().st_mtime_ns)
        for p in [path, *path.rglob("*")]
    }


@pytest.mark.parametrize(
    "name",
    [
        "canon_d2-2_r2.txt",
        "split_d2-2_at1_r2.txt",
        "embed_d2_can.txt",
        "inner_d2-2_r2_can.txt",
    ],
)
def test_cache_options_are_ignored(tmp_path, name):
    argv = _REGEN.CLI_CASES[name]
    plain = _subprocess_cli(argv)
    assert plain.returncode == 0
    assert plain.stdout == golden(name)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("occupied\n", encoding="utf-8")
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    ways = [
        ("flag, fresh directory", [*argv, "--cache-dir", str(fresh)], None, fresh),
        ("flag, regular file", [*argv, "--cache-dir", str(blocker)], None, blocker),
        ("environment", argv, {"QSL2_CACHE_DIR": str(env_dir)}, env_dir),
    ]
    for way, way_argv, env, path in ways:
        before = _snapshot(path)
        proc = _subprocess_cli(way_argv, env)
        assert (proc.returncode, proc.stderr) == (0, ""), way
        assert proc.stdout == plain.stdout, way
        assert _snapshot(path) == before, way
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "env", "fresh", "not_a_directory",
    ]


def test_cold_and_warm_cache_agree_across_processes(tmp_path):
    env = {"QSL2_CACHE_DIR": str(tmp_path)}
    argv = ["canon", "--d", "3,3", "--r", "3", "--format", "json"]
    cold = _subprocess_cli(argv, env)
    assert cold.returncode == 0
    assert list(tmp_path.iterdir()) == []
    warm = _subprocess_cli(argv, env)
    assert warm.returncode == 0
    assert warm.stdout == cold.stdout

    # A file where the old cache kept this table is neither read nor rewritten.
    stale = tmp_path / "canonical_v2_d3-3_r3.json"
    stale.write_text("{ corrupted", encoding="utf-8")
    again = _subprocess_cli(argv, env)
    assert again.returncode == 0
    assert again.stdout == cold.stdout
    assert stale.read_text(encoding="utf-8") == "{ corrupted"


def test_cache_dir_that_is_a_regular_file_is_ignored(tmp_path):
    argv = ["canon", "--d", "1,1", "--r", "1"]
    plain = _subprocess_cli(argv)
    assert plain.returncode == 0
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("occupied\n", encoding="utf-8")
    proc = _subprocess_cli([*argv, "--cache-dir", str(blocker)])
    assert proc.returncode == 0
    assert proc.stdout == plain.stdout
    assert proc.stderr == ""
    assert blocker.read_text(encoding="utf-8") == "occupied\n"


# -- the parser -------------------------------------------------------------------


def _parse(parser, argv, capsys):
    """parse_args on argv: the namespace or the exit code, then stdout
    and stderr."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    out, err = capsys.readouterr()
    return outcome, out, err


PARSER_CASES = [
    ["--help"],
    *([name, "--help"] for name in cli_mod._COMMANDS),
    [],
    ["bogus"],
    ["-h", "canon"],
    ["canon", "-h"],
    ["canon", "--d", "2,2", "--r", "2", "extra"],
    ["canon", "--d", "2,2", "--r", "2", "--format", "yaml"],
    ["canon", "--d", "2,2"],
    ["canon", "--d", "2,2", "--r", "x"],
    ["--", "canon", "--d", "2,2", "--r", "2"],
    ["orbits", "--d", "2,2", "--r", "1", "--format", "dot"],
    ["verify"],
]


@pytest.mark.parametrize(
    "argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_one_command_parser_reads_as_the_full_parser(argv, capsys, monkeypatch):
    # a fixed width, so that help and usage lines wrap the same way
    monkeypatch.setenv("COLUMNS", "80")
    command = argv[0] if argv and argv[0] in cli_mod._COMMANDS else None
    own = _parse(cli_mod._build_parser(command), argv, capsys)
    full = _parse(cli_mod._build_parser(None), argv, capsys)
    assert own == full
    if not isinstance(own[0], dict):
        # help or an error: main prints the same and returns the code
        assert (main(argv), *capsys.readouterr()) == own


def test_a_missing_or_unknown_command_is_reported_as_command(capsys):
    # the usage line lists the commands, the error names the argument
    code, _, err = run([], capsys)
    assert code == 2
    assert err.endswith("error: the following arguments are required: command\n")
    code, _, err = run(["bogus"], capsys)
    assert code == 2
    assert "error: argument command: invalid choice: 'bogus'" in err


def test_one_command_parser_registers_that_command_alone():
    def commands(parser):
        (subs,) = [a for a in parser._actions if a.dest == "command"]
        return list(subs.choices)

    assert commands(cli_mod._build_parser("canon")) == ["canon"]
    assert commands(cli_mod._build_parser(None)) == list(cli_mod._COMMANDS)
    assert list(cli_mod._COMMANDS) == [
        "canon", "rmat", "split", "bar", "embed", "inner", "orbits", "verify",
    ]


# -- exit codes --------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    cases = [
        ["nonsense"],
        [],
        ["canon", "--d", "2,x", "--r", "1"],
        ["canon", "--d", "-1,2", "--r", "0"],
        ["canon", "--d", "1,1", "--r", "5"],
        ["canon", "--d", "1,1", "--r", "-1"],
        ["rmat", "--d", "1,1,1", "--word", "1,1"],
        ["rmat", "--d", "1,1", "--word", "2"],
        ["rmat", "--d", "1,1", "--word", "1,z"],
        ["split", "--d", "1,1", "--at", "0", "--r", "1"],
        ["split", "--d", "1,1", "--at", "2", "--r", "1"],
        ["bar", "--d", "1,1", "--vector", "0,2"],
        ["bar", "--d", "1,1", "--vector", "0"],
        ["embed", "--d", "0,0"],
        ["inner", "--d", "4", "--r", "9"],
        ["orbits", "--d", "2,2", "--r", "-1"],
        ["verify", "--max-total", "0"],
        ["canon", "--d", "2,2", "--r", "2", "--format", "yaml"],
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()
        assert code == 2, f"{argv} exited {code}, wanted 2"


def test_usage_error_reports_position(capsys):
    code, _, err = run(["canon", "--d", "2,x,3", "--r", "1"], capsys)
    assert code == 2
    assert "part 2" in err


def test_internal_assertion_exits_1(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise HalfPowerLeakError("entry (q^(1/2)) has a half power of q")

    monkeypatch.setattr(cli_mod, "canonical_basis", explode)
    code, _, err = run(["canon", "--d", "1,1", "--r", "1"], capsys)
    assert code == 1
    assert "half power" in err


def test_verify_failure_exits_1_with_witness(monkeypatch, capsys):
    def fake_run_all(max_total):
        return [SuiteResult("demo", 3, ["d=(1,1) r=1 lhs != rhs"], False)]

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    code, out, _ = run(["verify", "--max-total", "2"], capsys)
    assert code == 1
    assert "d=(1,1) r=1 lhs != rhs" in out
    assert "FAILED at max total 2" in out


def test_verify_truncated_suite_exits_1(monkeypatch, capsys):
    # a suite that stopped recording witnesses fails with no witness shown
    def fake_run_all(max_total):
        return [SuiteResult("x", 1, [], True)]

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    code, out, _ = run(["verify", "--max-total", "2"], capsys)
    assert code == 1
    assert out == (
        "suite x                1 checks,   0 failures  [FAIL]\n"
        "  (more failures suppressed)\n"
        "FAILED at max total 2\n"
    )


def test_verify_success_exits_0(capsys):
    code, out, _ = run(["verify", "--max-total", "2"], capsys)
    assert code == 0
    assert "all suites passed: 7 suites," in out
