"""The self-check suites: result bookkeeping, the composition sweep,
and a full pass at small scope."""

import itertools
import os

import pytest

import qsl2.canonical as canonical_mod
import qsl2.rmatrix as rmatrix_mod
import qsl2.verify as verify_mod
from qsl2 import (
    CanonicalTable,
    ModuleVector,
    SuiteResult,
    canonical_basis,
    clear_caches,
    cli,
    compositions,
    compute_quasi_r,
    inner_product,
    orbits,
    run_all,
    split_expand,
)
from qsl2.modules import act_F, act_K
from qsl2.errors import AmbientMismatchError, PurityViolationError
from qsl2.qring import ONE, Q, QINV, ZERO, Laurent
from qsl2.verify import SUITES, _FAILURE_CAP

from conftest import r_plus_columns, solved_under

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_suite_result_counts_and_caps_failures():
    def boom():
        raise AssertionError("a witness was formatted for an unrecorded check")

    s = SuiteResult("demo")
    s.check(True, "never recorded")
    s.check(True, boom)
    assert s.checks == 2 and s.passed and s.failures == []
    s.check(False, "first witness")
    s.check(False, lambda: f"lazy witness {(1, 2)} at {Q}")
    assert not s.passed
    assert s.failures == ["first witness", "lazy witness (1, 2) at q"]
    for i in range(_FAILURE_CAP + 10):
        s.check(False, f"w{i}")
    assert len(s.failures) == _FAILURE_CAP
    assert s.truncated
    s.check(False, boom)
    assert s.checks == 5 + _FAILURE_CAP + 10


def test_compositions_sweep():
    assert compositions(1) == [(1,)]
    got = compositions(3)
    assert got == [
        (1,),
        (2,),
        (1, 1),
        (3,),
        (1, 2),
        (2, 1),
        (1, 1, 1),
    ]
    assert all(all(p >= 1 for p in c) for c in compositions(5))
    assert all(1 <= sum(c) <= 5 for c in compositions(5))
    assert len(set(compositions(5))) == len(compositions(5))
    # the same list, in the same order, as filtering every tuple of parts
    for max_total in range(1, 7):
        brute = [
            parts
            for total in range(1, max_total + 1)
            for l in range(1, total + 1)
            for parts in itertools.product(range(1, total + 1), repeat=l)
            if sum(parts) == total
        ]
        assert compositions(max_total) == brute


def test_run_all_small_scope_passes():
    results = run_all(3)
    assert [r.name for r in results] == sorted(SUITES)
    for r in results:
        assert r.checks > 0
        assert r.passed, f"suite {r.name}: {r.failures[:3]}"


def test_run_all_rejects_empty_scope():
    with pytest.raises(ValueError):
        run_all(0)
    with pytest.raises(ValueError):
        run_all(-2)


def _no_fork(monkeypatch):
    def refuse():
        raise AssertionError("run_all forked a worker")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.mark.parametrize("max_total", [True, 2.5, "3"])
def test_run_all_refuses_a_max_total_that_is_not_an_int(monkeypatch, max_total):
    _no_fork(monkeypatch)
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda m: pytest.fail("a suite ran"))
    with pytest.raises(ValueError, match="max_total must be an int"):
        run_all(max_total)


# -- run_all across processes ------------------------------------------------------


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_on_one_cpu_equals_run_all_on_every_cpu(monkeypatch):
    spread = run_all(4)
    _cpus(monkeypatch, len(SUITES))
    one_each = run_all(4)
    _cpus(monkeypatch, 1)
    _no_fork(monkeypatch)
    serial = run_all(4)
    assert [r.name for r in serial] == sorted(SUITES)
    # SuiteResult equality is field by field
    assert serial == spread == one_each
    _assert_no_child_left()


def test_run_all_forks_no_worker_beside_another_thread(monkeypatch):
    import threading

    _cpus(monkeypatch, 2)
    _no_fork(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert [r.name for r in run_all(2)] == sorted(SUITES)
    finally:
        release.set()
        waiter.join()


@pytest.fixture
def one_worker(monkeypatch):
    """plant(in_worker, in_parent=None): two processes, every suite in
    the worker replaced by in_worker(max_total), and in the parent by
    in_parent when given.  The worker announces each suite it starts on
    a pipe, and the parent's first suite waits for that, so the worker
    always takes a suite.  plant returns a list that then holds the name
    of the worker's first suite."""
    import select

    _cpus(monkeypatch, 2)
    parent = os.getpid()
    sync_r, sync_w = os.pipe()
    seen = []

    def plant(in_worker, in_parent=None):
        def wrap(name, real):
            def suite(max_total):
                if os.getpid() != parent:
                    os.write(sync_w, name.encode() + b"\n")
                    return in_worker(max_total)
                if not seen:
                    assert select.select([sync_r], [], [], 10)[0], "no worker ran a suite"
                    seen.append(os.read(sync_r, 256).decode().split()[0])
                return (in_parent or real)(max_total)

            return suite

        for name, real in list(SUITES.items()):
            monkeypatch.setitem(SUITES, name, wrap(name, real))
        return seen

    yield plant
    os.close(sync_r)
    os.close(sync_w)


def _raising(text):
    def suite(max_total):
        raise AmbientMismatchError(text)

    return suite


def test_run_all_reraises_a_suite_error_from_a_worker(one_worker):
    one_worker(_raising("planted"))
    with pytest.raises(AmbientMismatchError) as err:
        run_all(2)
    assert type(err.value) is AmbientMismatchError
    assert str(err.value) == "planted"
    _assert_no_child_left()


class _TwoPartError(Exception):
    """An exception that pickles but cannot be unpickled: its __init__
    does not take its own args back."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_run_all_sends_an_unpicklable_suite_error_as_its_type_and_text(one_worker):
    def broken(max_total):
        raise _TwoPartError("one", "two")

    one_worker(broken)
    with pytest.raises(RuntimeError, match=r"^_TwoPartError: one and two$"):
        run_all(2)
    _assert_no_child_left()


def test_run_all_reraises_the_first_suite_error_in_suite_order(monkeypatch):
    # the third suite raises first, in the other process; the second
    # raises only after that, and its error is the one run_all raises
    import select

    names = sorted(SUITES)
    _cpus(monkeypatch, 2)
    raised_r, raised_w = os.pipe()

    def second(max_total):
        assert select.select([raised_r], [], [], 10)[0], "the third suite did not raise"
        raise AmbientMismatchError(names[1])

    def third(max_total):
        os.write(raised_w, b"x")
        raise AmbientMismatchError(names[3])

    monkeypatch.setitem(SUITES, names[1], second)
    monkeypatch.setitem(SUITES, names[3], third)
    try:
        with pytest.raises(AmbientMismatchError, match=f"^{names[1]}$"):
            run_all(2)
    finally:
        os.close(raised_r)
        os.close(raised_w)
    _assert_no_child_left()


def test_run_all_on_one_cpu_stops_at_the_first_suite_error(monkeypatch):
    _cpus(monkeypatch, 1)
    names = sorted(SUITES)
    monkeypatch.setitem(SUITES, names[0], _raising("planted"))
    for name in names[1:]:
        monkeypatch.setitem(SUITES, name, lambda m: pytest.fail("a later suite ran"))
    with pytest.raises(AmbientMismatchError, match="planted"):
        run_all(2)


def test_run_all_names_the_suite_of_a_worker_that_died(one_worker):
    seen = one_worker(lambda max_total: os._exit(3))
    with pytest.raises(RuntimeError, match="exited without reporting") as err:
        run_all(2)
    assert f"unreported suites: {seen[0]}" in str(err.value)
    assert "exit code 3" in str(err.value)
    _assert_no_child_left()


def test_run_all_kills_its_workers_when_interrupted(one_worker):
    import time

    def interrupt(max_total):
        raise KeyboardInterrupt

    def stall(max_total):
        time.sleep(60)
        os._exit(1)

    t0 = time.monotonic()
    one_worker(stall, in_parent=interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_all(2)
    _assert_no_child_left()
    assert time.monotonic() - t0 < 30


def test_run_all_writes_nothing_to_stdout_or_stderr(monkeypatch, capfd):
    _cpus(monkeypatch, len(SUITES))
    capfd.readouterr()
    assert all(r.passed for r in run_all(3))
    assert capfd.readouterr() == ("", "")
    _assert_no_child_left()


def test_suites_are_deterministic():
    a = SUITES["ring"](3)
    b = SUITES["ring"](3)
    assert (a.checks, a.failures) == (b.checks, b.failures)


# -- the suites catch injected faults -------------------------------------------


def test_run_all_check_counts_are_pinned():
    counts = {r.name: r.checks for r in run_all(4)}
    assert counts == {
        "bar": 634,
        "canonical": 1521,
        "embed": 138,
        "modules": 2487,
        "orbits": 784,
        "ring": 569,
        "rmatrix": 1924,
    }


def test_suite_orbits_catches_a_closure_rule_that_is_always_true(monkeypatch):
    monkeypatch.setattr(orbits, "closure_leq", lambda d, s, t: True)
    res = SUITES["orbits"](3)
    assert not res.passed
    assert any(w.startswith("antisymmetry") for w in res.failures)


def test_suite_modules_catches_a_wrong_adjoint_of_e(monkeypatch):
    right = verify_mod.rho_twist

    def wrong(gen):
        # rho(E) = qKF with the q scale dropped
        if gen == "E":
            return lambda u: act_K(act_F(u))
        return right(gen)

    monkeypatch.setattr(verify_mod, "rho_twist", wrong)
    res = SUITES["modules"](2)
    assert not res.passed
    assert res.failures
    assert all(w.startswith("adjointness of E") for w in res.failures)


def test_suite_modules_reads_the_e_that_verify_imports(monkeypatch):
    # the operator maps are built from verify's own act_E binding, so a
    # fault planted there breaks the commutator and the adjointness of E
    real = verify_mod.act_E
    monkeypatch.setattr(verify_mod, "act_E", lambda u: real(u).scale(Q))
    res = SUITES["modules"](3)
    assert len(res.failures) == _FAILURE_CAP and res.truncated
    starts = ("EF-FE", "adjointness of E")
    for start in starts:
        assert any(w.startswith(start) for w in res.failures), start


def test_suite_bar_reads_the_f_that_verify_imports(monkeypatch):
    real = verify_mod.act_F
    monkeypatch.setattr(verify_mod, "act_F", lambda u: real(u).scale(Q))
    res = SUITES["bar"](3)
    assert len(res.failures) == _FAILURE_CAP and res.truncated
    assert all(w.startswith("Psi F") for w in res.failures)


def _plant_perturbed_row(monkeypatch, product, solved=0):
    """Replace the memoized level-1 table of (1,1) by one whose row
    b(0,1) reads v(0,1) + q v(1,0) in place of v(0,1) + q^-1 v(1,0).
    With product, its product coordinates say the same,
    b(0,1) = P(0,1) + q P(1,0); without, they are the good table's.
    Every table of total at most solved is solved first, from the good
    table, so the planted one is read only as a factor of a split."""
    clear_caches()
    for e in compositions(solved):
        for r in range(sum(e) + 1):
            canonical_basis(e, r)
    d = (1, 1)
    good = canonical_basis(d, 1)
    assert good.rows[(0, 1)] == ModuleVector.basis(d, (0, 1)) + ModuleVector.basis(
        d, (1, 0)
    ).scale(QINV)
    rows = dict(good.rows)
    rows[(0, 1)] = ModuleVector.basis(d, (0, 1)) + ModuleVector.basis(d, (1, 0)).scale(Q)
    coords = dict(good.product)
    if product:
        coords[(0, 1)] = {(0, 1): ONE, (1, 0): Q}
    bad = CanonicalTable(d, 1, good.order, rows, coords)
    monkeypatch.setitem(canonical_mod._MEMO, ("table", d, 1), bad)


def test_suite_canonical_catches_a_perturbed_row(monkeypatch):
    _plant_perturbed_row(monkeypatch, product=True)
    res = SUITES["canonical"](2)
    assert not res.passed
    assert any(w.startswith("(b(0, 1), b(0, 1)) =") for w in res.failures)
    assert any(w.startswith("split coefficients at (0, 1)") for w in res.failures)
    # restore the good table before clearing, so that no table is left
    # in the memo without its product coordinates
    monkeypatch.undo()
    clear_caches()


def test_suite_canonical_catches_a_perturbed_row_under_good_product_coordinates(
    monkeypatch,
):
    # the split reads only product coordinates, and the pairing of its
    # rows against the standard rows still tells the perturbed row
    _plant_perturbed_row(monkeypatch, product=False)
    res = SUITES["canonical"](2)
    assert res.checks == 50
    assert [w for w in res.failures if w.startswith("split")] == [
        "split pairing ((1, 0),(0, 1)) in (1, 1) cut 1",
        "split pairing ((0, 1),(1, 0)) in (1, 1) cut 1",
        "split pairing ((0, 1),(0, 1)) in (1, 1) cut 1",
    ]
    monkeypatch.undo()
    clear_caches()


def _reference_split_pairing_failures(max_total):
    """The split-pairing witnesses of suite_canonical(max_total), each
    pairing evaluated as sum c c' (b'_s', b'_t')(b''_s'', b''_t'') over
    the terms of the two split rows whose left parts share a level."""
    failures = []
    for d in compositions(max_total):
        for cut in range(1, len(d)):
            for r in range(sum(d) + 1):
                rows = canonical_basis(d, r).rows
                split = split_expand(d, cut, r)
                for idx in split.order:
                    for jdx in split.order:
                        paired = Laurent()
                        for s, c in split.rows[idx].items():
                            for t, e in split.rows[jdx].items():
                                if sum(s[:cut]) != sum(t[:cut]):
                                    continue
                                factors = [
                                    inner_product(
                                        canonical_basis(part, sum(x)).rows[x],
                                        canonical_basis(part, sum(y)).rows[y],
                                    )
                                    for part, x, y in (
                                        (d[:cut], s[:cut], t[:cut]),
                                        (d[cut:], s[cut:], t[cut:]),
                                    )
                                ]
                                paired = paired + c * e * factors[0] * factors[1]
                        if inner_product(rows[idx], rows[jdx]) != paired:
                            failures.append(
                                f"split pairing ({idx},{jdx}) in {d} cut {cut}"
                            )
    return failures


@pytest.mark.parametrize("max_total", [2, 3, 4])
@pytest.mark.parametrize("plant", [None, "product", "rows"])
def test_split_pairings_match_the_factor_pairing_reference(
    monkeypatch, max_total, plant
):
    # the suite decides a split pairing from rebuilt rows; the reference
    # sums the factor pairings term by term, and both fail the same pairs
    monkeypatch.setattr(verify_mod, "_FAILURE_CAP", 10**9)
    if plant is None:
        clear_caches()
    else:
        _plant_perturbed_row(monkeypatch, product=plant == "product", solved=max_total)
    expected = _reference_split_pairing_failures(max_total)
    res = SUITES["canonical"](max_total)
    assert not res.truncated
    assert [w for w in res.failures if w.startswith("split pairing")] == expected
    if plant is None:
        assert res.passed
    elif max_total > 2:
        # the planted rows reach the splits of total 3 as a factor
        assert expected
    monkeypatch.undo()
    clear_caches()


def test_suite_embed_catches_a_perturbed_row(monkeypatch):
    # neither the embedding nor R_- reads a canonical table, so a wrong
    # level-1 table of (1,1) fails exactly one dense-refinement check
    clear_caches()
    d = (1, 1)
    good = canonical_basis(d, 1)
    rows = dict(good.rows)
    rows[(0, 1)] = ModuleVector.basis(d, (0, 1)) + ModuleVector.basis(d, (1, 0)).scale(Q)
    bad = CanonicalTable(d, 1, good.order, rows)
    monkeypatch.setitem(canonical_mod._MEMO, ("table", d, 1), bad)
    res = SUITES["embed"](2)
    assert res.failures == ["b(1,) not sent to its dense refinement in (2,)"]
    # restore the good table before clearing, so that no table is left
    # in the memo without its product coordinates
    monkeypatch.undo()
    clear_caches()


@pytest.fixture
def cleared():
    """Empty caches before and after, so no planted fault outlives the test."""
    clear_caches()
    yield
    clear_caches()


def test_suite_rmatrix_records_an_error_from_r_move(monkeypatch, capsys, cleared):
    # R_+ without its scalar leaks half powers; the typed error is one
    # recorded failure, and verify goes on to the other suites
    monkeypatch.setattr(
        rmatrix_mod,
        "_r_plus_columns",
        lambda d1, d2: r_plus_columns(d1, d2, with_scalar=False),
    )
    res = SUITES["rmatrix"](2)
    assert res.failures == ["r_move((1, 1), (1,), 'plus') raised HalfPowerLeakError"]
    res = SUITES["embed"](2)
    assert res.failures == [
        f"R_{sign} on (1, 1) or its lift raised HalfPowerLeakError"
        for sign in ("plus", "minus")
    ]
    # so the command prints every suite's line and fails, not a traceback
    assert cli.main(["verify", "--max-total", "2"]) == 1
    out = capsys.readouterr().out
    suites = [line.split()[1] for line in out.splitlines() if line.startswith("suite ")]
    assert suites == sorted(SUITES)
    assert out.endswith("FAILED at max total 2\n")


def test_suite_rmatrix_catches_a_negated_kappa(cleared):
    # both braidings read the checked kappa through Psi, so R_- stays the
    # inverse of R_+ and the planted sign shows as broken intertwining
    compute_quasi_r(1)
    canonical_mod._KAPPA[1] = -canonical_mod._KAPPA[1]
    res = SUITES["rmatrix"](2)
    assert res.checks == 77
    assert len(res.failures) == 4
    assert all(
        w.startswith("intertwining ") and w.endswith(" on (1, 1)") for w in res.failures
    ), res.failures


def _kappa_faults():
    ks = compute_quasi_r(2)
    return {
        "negated-kappa1": [ks[0], -ks[1], ks[2]],
        "kappa0-2": [Laurent.from_int(2), ks[1], ks[2]],
        "ones": [ONE, ONE, ONE],
        "kappa2-0": [ks[0], ks[1], ZERO],
    }


@pytest.mark.parametrize(
    "fault, failed",
    [("negated-kappa1", 25), ("kappa0-2", 25), ("ones", 25), ("kappa2-0", 2)],
)
def test_suite_canonical_catches_a_kappa_fault_by_the_bar_check(fault, failed):
    # the solve reads no kappa, so the tables stay the true ones, and
    # Psi under the planted kappa no longer fixes some of their rows
    clear_caches()
    tables = {
        (d, r): canonical_basis(d, r) for d in compositions(4) for r in range(sum(d) + 1)
    }
    checks = SUITES["canonical"](4).checks
    with solved_under(_kappa_faults()[fault]):
        res = SUITES["canonical"](4)
        for (d, r), table in tables.items():
            assert canonical_basis(d, r) == table, (d, r)
    assert res.checks == checks
    assert len(res.failures) == failed
    assert res.truncated == (failed == _FAILURE_CAP)
    assert all(" not bar fixed in " in w for w in res.failures), res.failures


@pytest.mark.parametrize(
    "perturb, outcome",
    [
        (lambda c: -c, "caught"),
        (lambda c: c * Q, "refused"),
        (lambda c: c * QINV, "refused"),
        (lambda c: c + ONE, "caught"),
    ],
    ids=["negated", "times-q", "times-q-inverse", "plus-1"],
)
def test_a_planted_e_coordinate_is_refused_or_caught(
    monkeypatch, cleared, perturb, outcome
):
    # E b''_(1,1) = b''_(0,1) on (1,1), perturbed in the memo before any
    # table of three slots reads it: a wrong parity is refused by the
    # solve, and the suite catches a table the solve accepts
    for r in range(3):
        canonical_basis((1, 1), r)
    key = ("E", (1, 1), (1, 1), 1)
    good = canonical_mod._e_coords(*key[1:])
    assert good == {(0, 1): ONE}
    bad = {u: perturb(c) for u, c in good.items()}
    monkeypatch.setitem(canonical_mod._MEMO, key, bad)
    try:
        res = SUITES["canonical"](3)
    except PurityViolationError as e:
        assert "at (1, 0, 1) in b(0, 1, 1) on Lambda_(1, 1, 1)" in str(e)
        got = "refused"
    else:
        assert not res.passed
        assert "b(0, 1, 1) not bar fixed in (1, 1, 1)" in res.failures
        got = "caught"
    assert got == outcome
    monkeypatch.undo()


def test_failing_lazy_witnesses_render_the_eager_text(monkeypatch):
    # the exact witnesses the suite printed when every one was an f-string
    _plant_perturbed_row(monkeypatch, product=True)
    res = SUITES["canonical"](2)
    assert res.checks == 50 and not res.truncated
    assert res.failures == [
        "(b(1, 0), b(0, 1)) = q in (1, 1)",
        "b(0, 1) not bar fixed in (1, 1)",
        "coefficient (q) at (1, 0) in b(0, 1) of (1, 1)",
        "(b(0, 1), b(1, 0)) = q in (1, 1)",
        "(b(0, 1), b(0, 1)) = q^2 + 1 in (1, 1)",
        "split coefficients at (0, 1) in (1, 1) cut 1",
    ]
    # restore the good table before clearing, so that no table is left
    # in the memo without its product coordinates
    monkeypatch.undo()
    clear_caches()


# -- the README shows what verify prints ----------------------------------------


def test_readme_verify_block_matches_cli(capsys):
    with open(README, "r", encoding="utf-8") as fh:
        text = fh.read()
    prompt = "$ qsl2 verify --max-total 5\n"
    block = text[text.index(prompt) + len(prompt) :]
    block = block[: block.index("```")]
    assert cli.main(["verify", "--max-total", "5"]) == 0
    assert capsys.readouterr().out == block
