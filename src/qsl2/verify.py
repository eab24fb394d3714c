"""Property suites behind the `verify` subcommand.

Each suite sweeps every composition with positive parts and total at
most max_total, counts individual checks, and collects a short witness
string for each failure instead of stopping at the first one.  Sampled
checks draw from a fixed-seed generator so two runs of the same scope
see the same cases.

The module, bar and braiding suites build, once per composition, the
LinMap of each operator they apply to basis vectors (K, E, F, and E^(2)
and F^(2) for the module relations) from the act_* names this module
imports, check every relation column by column, and drop the maps when
the sweep moves on.  The bar suite walks the basis as the columns of
LinMap.identity(d) and the braiding suite walks a move's own columns,
both in LinMap.of's order: level by level, each level in its linear
extension.  The kernels still act directly on vectors that are not
basis vectors: E, F and K^-1 on Psi(v) in the bar suite, K, E and F on
R(v) in the braiding suite, and rho_twist's composites (K after F or
E) in the adjointness checks.

run_all spreads the suites over the CPUs the process may use: it runs
them in the calling process and in forked workers, each process pulling
the next suite from one shared pipe, and returns the results in suite
order.  Each process keeps its own memos, so every result, and every
byte the verify command prints, is the same as on one CPU.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import random
import threading
from collections.abc import Callable

from . import orbits
from .canonical import (
    bar_involution,
    canonical_basis,
    embed_refine,
    split_expand,
)
from .errors import AlgebraError
from .modules import (
    LinMap,
    ModuleVector,
    _Record,
    act_divided,
    act_E,
    act_F,
    act_K,
    combine,
    enumerate_basis,
    inner_product,
    rho_twist,
    tensor,
)
from .qring import (
    Laurent,
    ONE,
    ZERO,
    exact_div,
    q_power,
    quantum_binomial,
    quantum_factorial,
    quantum_integer,
)
from .rmatrix import PermWord, lift_word, r_move

__all__ = ["SuiteResult", "compositions", "run_all", "SUITES"]

Composition = orbits.Composition

_FAILURE_CAP = 25
_SEED = 58214


class SuiteResult(_Record):
    """The running tally of one suite.  Unlike the other records it is
    mutable; it is unhashable, as a _Record is, and equality and repr
    are field-wise."""

    __slots__ = ("name", "checks", "failures", "truncated")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        name: str,
        checks: int = 0,
        failures: list[str] | None = None,
        truncated: bool = False,
    ):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures
        self.truncated = truncated

    @property
    def passed(self) -> bool:
        return not self.failures and not self.truncated

    def check(self, ok: bool, witness: str | Callable[[], str]) -> None:
        """Count one check.  A failing check records its witness, which
        may be a zero-argument callable so that passing checks format
        nothing; it is called at once, while its variables still hold."""
        self.checks += 1
        if not ok:
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(
                    witness if isinstance(witness, str) else witness()
                )
            else:
                self.truncated = True


def compositions(max_total: int) -> list[Composition]:
    """All compositions with positive parts and 1 <= total <= max_total,
    in a deterministic order."""
    return [
        parts
        for total in range(1, max_total + 1)
        for l in range(1, total + 1)
        for parts in _parts(total, l)
    ]


def _parts(total: int, l: int) -> list[Composition]:
    """The compositions of total into l positive parts, in lexicographic
    order."""
    if l == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(1, total - l + 2)
        for rest in _parts(total - first, l - 1)
    ]


def _random_laurent(rng: random.Random) -> Laurent:
    return Laurent(
        {
            rng.randrange(-8, 9): rng.randrange(-9, 10)
            for _ in range(rng.randrange(0, 5))
        }
    )


def _random_vector(rng: random.Random, d: Composition) -> ModuleVector:
    r = rng.randrange(0, sum(d) + 1)
    return ModuleVector(
        d,
        (
            (idx, _random_laurent(rng))
            for idx in enumerate_basis(d, r)
            if rng.random() < 0.6
        ),
    )


# -- suites ---------------------------------------------------------------------


def suite_ring(max_total: int) -> SuiteResult:
    res = SuiteResult("ring")
    rng = random.Random(_SEED)
    for trial in range(60):
        a, b, c = (_random_laurent(rng) for _ in range(3))
        res.check((a + b) - b == a, lambda: f"(a+b)-b != a at trial {trial}")
        res.check((a * b) * c == a * (b * c), lambda: f"associativity at trial {trial}")
        res.check(
            (a * b).bar() == a.bar() * b.bar(),
            lambda: f"bar not multiplicative at trial {trial}",
        )
        res.check(a.bar().bar() == a, lambda: f"bar not involutive at trial {trial}")
        if not b.is_zero():
            res.check(
                exact_div(a * b, b) == a,
                lambda: f"exact_div round trip at trial {trial}",
            )
    for n in range(13):
        qi = quantum_integer(n)
        res.check(qi.bar() == qi, lambda: f"[{n}] not bar invariant")
        for r in range(n + 1):
            lhs = quantum_binomial(n, r)
            res.check(
                lhs == quantum_binomial(n, n - r),
                lambda: f"binomial symmetry at ({n},{r})",
            )
            quotient = exact_div(
                quantum_factorial(n),
                quantum_factorial(r) * quantum_factorial(n - r),
            )
            res.check(
                lhs == quotient,
                lambda: f"binomial vs factorial quotient ({n},{r})",
            )
            res.check(lhs.bar() == lhs, lambda: f"binomial bar invariance ({n},{r})")
    return res


def _closure_table(d: Composition, idxs: list[tuple[int, ...]]) -> dict:
    """closure_leq on every ordered pair of one level, one call each."""
    return {(s, t): orbits.closure_leq(d, s, t) for s in idxs for t in idxs}


def suite_orbits(max_total: int) -> SuiteResult:
    res = SuiteResult("orbits")
    # the fine level (1,)*total at r, shared by every d of that total
    fine_leq: dict[tuple[int, int], dict] = {}
    for d in compositions(max_total):
        total = sum(d)
        fine = (1,) * total
        for r in range(total + 1):
            idxs = enumerate_basis(d, r)
            res.check(
                sum(orbits.cell_count(d, i) for i in idxs) == math.comb(total, r),
                lambda: f"cell counts at d={d} r={r}",
            )
            leq = _closure_table(d, idxs)
            dims = {i: orbits.orbit_dim(d, i) for i in idxs}
            for s, t in itertools.product(idxs, repeat=2):
                if leq[s, t] and leq[t, s]:
                    res.check(s == t, lambda: f"antisymmetry {s},{t} in {d}")
                if s != t and leq[s, t]:
                    res.check(
                        dims[s] < dims[t],
                        lambda: f"dim not strictly monotone {s} < {t} in {d}",
                    )
            above = {t: [u for u in idxs if leq[t, u]] for t in idxs}
            for s in idxs:
                for t in above[s]:
                    for u in above[t]:
                        res.check(leq[s, u], lambda: f"transitivity {s},{t},{u} in {d}")
            fleq = fine_leq.get((total, r))
            if fleq is None:
                fleq = fine_leq[total, r] = _closure_table(
                    fine, enumerate_basis(fine, r)
                )
            refinements = {i: _binary_refinements(d, i) for i in idxs}
            for idx in idxs:
                dense = orbits.dense_cell(d, idx)
                res.check(
                    all(fleq[ref, dense] for ref in refinements[idx]),
                    lambda: f"dense_cell not maximal for {idx} in {d}",
                )
                for s in idxs:
                    if s != idx and leq[s, idx]:
                        res.check(
                            all(not fleq[dense, ref] for ref in refinements[s]),
                            lambda: f"refinement of {s} above dense_cell({idx}) in {d}",
                        )
    return res


def _binary_refinements(d: Composition, idx: tuple[int, ...]) -> list[tuple[int, ...]]:
    per_block = [
        [
            tuple(1 if i in ones else 0 for i in range(dk))
            for ones in itertools.combinations(range(dk), rk)
        ]
        for dk, rk in zip(d, idx)
    ]
    return [
        tuple(itertools.chain.from_iterable(blocks))
        for blocks in itertools.product(*per_block)
    ]


def _generator_maps(d: Composition) -> list[tuple[str, Callable, LinMap]]:
    """(name, kernel, map on Lambda_d) for K, E and F, the kernels read
    from this module's bindings when called."""
    ops = (("K", act_K), ("E", act_E), ("F", act_F))
    return [(x, op, LinMap.of(d, op)) for x, op in ops]


def suite_modules(max_total: int) -> SuiteResult:
    res = SuiteResult("modules")
    qm = Laurent({2: 1, -2: -1})
    for d in compositions(max_total):
        total = sum(d)
        ident = LinMap.identity(d)
        basis = ident.columns
        k_map, e_map, f_map = (x_map for _, _, x_map in _generator_maps(d))
        # X^(0), X^(1) = X and X^(2) for each generator
        divided = {
            "E": (ident, e_map, LinMap.of(d, lambda u: act_divided(u, "E", 2))),
            "F": (ident, f_map, LinMap.of(d, lambda u: act_divided(u, "F", 2))),
        }
        dim = 0
        for r in range(total + 1):
            idxs = enumerate_basis(d, r)
            dim += len(idxs)
            w = total - 2 * r
            scalar = exact_div(q_power(w) - q_power(-w), qm) if w != 0 else ZERO
            for idx in idxs:
                u = basis[idx]
                eu, fu = e_map.columns[idx], f_map.columns[idx]
                ku = k_map.columns[idx]
                res.check(
                    k_map.apply(eu) == e_map.apply(ku).scale(q_power(2)),
                    lambda: f"KE != q^2 EK at {idx} in {d}",
                )
                res.check(
                    k_map.apply(fu) == f_map.apply(ku).scale(q_power(-2)),
                    lambda: f"KF != q^-2 FK at {idx} in {d}",
                )
                commutator = e_map.apply(fu) - f_map.apply(eu)
                res.check(
                    commutator == u.scale(scalar),
                    lambda: f"EF-FE at {idx} in {d}",
                )
                for gen, maps in divided.items():
                    powers = [x_map.columns[idx] for x_map in maps]
                    for n in range(3):
                        for m in range(3 - n):
                            lhs = maps[n].apply(powers[m])
                            rhs = powers[n + m].scale(quantum_binomial(n + m, n))
                            res.check(
                                lhs == rhs,
                                lambda: f"{gen}^({n}){gen}^({m}) at {idx} in {d}",
                            )
            for x, shift, x_map in (("K", 0, k_map), ("E", -1, e_map), ("F", 1, f_map)):
                rho = rho_twist(x)
                if not 0 <= r + shift <= total:
                    continue
                targets = [(jdx, basis[jdx]) for jdx in enumerate_basis(d, r + shift)]
                rho_w = [rho(w_vec) for _, w_vec in targets]
                for idx in idxs:
                    x_u = x_map.columns[idx]
                    u = basis[idx]
                    for (jdx, w_vec), rw in zip(targets, rho_w):
                        res.check(
                            inner_product(x_u, w_vec) == inner_product(u, rw),
                            lambda: f"adjointness of {x} at ({idx},{jdx}) in {d}",
                        )
        res.check(
            dim == math.prod(dk + 1 for dk in d),
            lambda: f"total dimension of Lambda_{d}",
        )
    return res


def suite_bar(max_total: int) -> SuiteResult:
    res = SuiteResult("bar")
    rng = random.Random(_SEED + 1)
    for d in compositions(max_total):
        ops = _generator_maps(d)
        basis = LinMap.identity(d).columns
        for idx, u in basis.items():
            pu = bar_involution(u)
            res.check(bar_involution(pu) == u, lambda: f"Psi^2 at {idx} in {d}")
            delta = pu - u
            res.check(
                all(
                    s != idx and orbits.closure_leq(d, s, idx)
                    for s in delta.support()
                ),
                lambda: f"bar matrix not unitriangular at {idx} in {d}",
            )
            for x, op, x_map in ops:
                lhs = bar_involution(x_map.columns[idx])
                rhs = act_K(pu, -1) if x == "K" else op(pu)
                res.check(lhs == rhs, lambda: f"Psi {x} at {idx} in {d}")
        v = _random_vector(rng, d)
        c = _random_laurent(rng)
        res.check(
            bar_involution(v.scale(c)) == bar_involution(v).scale(c.bar()),
            lambda: f"anti-linearity on {d}",
        )
        if len(d) == 3:
            for idx, u in basis.items():
                res.check(
                    bar_involution(u, cut=1) == bar_involution(u, cut=2),
                    lambda: f"nesting dependence at {idx} in {d}",
                )
    return res


def suite_canonical(max_total: int) -> SuiteResult:
    res = SuiteResult("canonical")
    for d in compositions(max_total):
        total = sum(d)
        # (b_idx, b_jdx) for every ordered pair of rows of each level,
        # read by the pairing check and by the split checks below; the
        # form is symmetric, so each unordered pair is computed once
        grams: dict[int, dict[tuple, Laurent]] = {}
        for r in range(total + 1):
            table = canonical_basis(d, r)
            gram = grams[r] = {}
            for i, idx in enumerate(table.order):
                for jdx in table.order[i:]:
                    gram[idx, jdx] = gram[jdx, idx] = inner_product(
                        table.rows[idx], table.rows[jdx]
                    )
            for idx in table.order:
                row = table.rows[idx]
                res.check(
                    row.coeff(idx) == ONE, lambda: f"diagonal at {idx} level {r} in {d}"
                )
                res.check(
                    bar_involution(row) == row,
                    lambda: f"b{idx} not bar fixed in {d}",
                )
                for s, c in row.items():
                    if s == idx:
                        continue
                    res.check(
                        orbits.closure_leq(d, s, idx)
                        and c.is_in_qinv_z_nonneg(),
                        lambda: f"coefficient ({c}) at {s} in b{idx} of {d}",
                    )
                for jdx in table.order:
                    pairing = gram[idx, jdx]
                    expected_delta = ONE if idx == jdx else ZERO
                    res.check(
                        (pairing - expected_delta).is_in_qinv_z_nonneg(),
                        lambda: f"(b{idx}, b{jdx}) = {pairing} in {d}",
                    )
            if r in (0, total):
                res.check(
                    len(table.order) == 1
                    and table.rows[table.order[0]]
                    == ModuleVector.basis(d, table.order[0]),
                    lambda: f"degenerate level {r} in {d}",
                )
        for cut in range(1, len(d)):
            # the rows b' of Lambda_(d[:cut]) and b'' of Lambda_(d[cut:]),
            # every level, by index
            left, right = (
                {x: b for a in range(sum(e) + 1) for x, b in canonical_basis(e, a).rows.items()}
                for e in (d[:cut], d[cut:])
            )
            for r in range(total + 1):
                split = split_expand(d, cut, r)
                rows = canonical_basis(d, r).rows
                # each split row rebuilt as X = sum_s c_s b'_(s[:cut]) (x) b''_(s[cut:])
                rebuilt: dict[tuple, ModuleVector] = {}
                for idx in split.order:
                    coords = split.rows[idx]
                    res.check(
                        coords.get(idx) == ONE,
                        lambda: f"split leading coefficient at {idx} in {d} cut {cut}",
                    )
                    res.check(
                        all(
                            orbits.closure_leq(d, s, idx)
                            and (s == idx or c.is_in_qinv_z_nonneg())
                            for s, c in coords.items()
                        ),
                        lambda: f"split coefficients at {idx} in {d} cut {cut}",
                    )
                    rebuilt[idx] = combine(
                        d,
                        ((c, tensor(left[s[:cut]], right[s[cut:]])) for s, c in coords.items()),
                    )
                same = {idx: rebuilt[idx] == rows[idx] for idx in split.order}
                # a split pairing asks (b_idx, b_jdx) == (X_idx, X_jdx), where
                # the form, the product of the factor forms, reads the right
                # side as sum c c' (b'_s', b'_t')(b''_s'', b''_t''); when both
                # rows rebuild their standard rows, the two sides are one value
                for idx in split.order:
                    for jdx in split.order:
                        res.check(
                            (same[idx] and same[jdx])
                            or grams[r][idx, jdx]
                            == inner_product(rebuilt[idx], rebuilt[jdx]),
                            lambda: f"split pairing ({idx},{jdx}) in {d} cut {cut}",
                        )
    return res


def _reduced_words(l: int) -> list[tuple[int, ...]]:
    """Every reduced word of every element of S_l, grown letter by
    letter; practical for the l <= 3 scope of the sweep."""
    out: list[tuple[int, ...]] = []
    max_len = l * (l - 1) // 2
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        new: list[tuple[int, ...]] = []
        for w in frontier:
            pw = PermWord(l, w)
            if pw.is_reduced():
                out.append(w)
                if len(w) < max_len:
                    new.extend(w + (a,) for a in range(1, l))
        frontier = new
    return out


def suite_rmatrix(max_total: int) -> SuiteResult:
    res = SuiteResult("rmatrix")
    for d in compositions(max_total):
        if len(d) > 3:
            continue
        identity = LinMap.identity(d)
        ops = _generator_maps(d)
        words = _reduced_words(len(d))
        by_perm: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for w in words:
            by_perm.setdefault(PermWord(len(d), w).permutation(), []).append(w)
        for perm, ws in by_perm.items():
            # a typed error from r_move is one recorded failure, not an abort
            target = PermWord(len(d), ws[0]).apply_to(d)
            inverse_word = tuple(reversed(ws[0]))
            calls = [(d, w, "plus") for w in ws] + [
                (target, inverse_word, "minus"),
                (target, inverse_word, "plus"),
                (d, ws[0], "minus"),
            ]
            built = []
            for call in calls:
                try:
                    built.append(r_move(*call))
                except AlgebraError as e:
                    res.check(False, f"r_move{call} raised {type(e).__name__}")
                    break
            if len(built) < len(calls):
                continue
            *moves, minus, plus_back, minus_fwd = built
            for other in moves[1:]:
                res.check(
                    other == moves[0],
                    lambda: f"word dependence for {perm} on {d}",
                )
            move = moves[0]
            res.check(
                move.apply(ModuleVector.basis(d, (0,) * len(d)))
                == ModuleVector.basis(move.target, (0,) * len(d)).scale(
                    _highest_weight_scalar(d, perm)
                ),
                lambda: f"highest-weight scalar for {perm} on {d}",
            )
            res.check(
                minus.compose(move) == identity,
                lambda: f"R_- R_+ != Id for {perm} on {d}",
            )
            res.check(
                plus_back.compose(minus_fwd) == identity,
                lambda: f"R_+ R_- != Id for {perm} on {d}",
            )
            for idx, img in move.columns.items():
                r = sum(idx)
                res.check(
                    all(sum(s) == r for s in img.support()),
                    lambda: f"weight broken at {idx} for {perm} on {d}",
                )
                for x, op, x_map in ops:
                    res.check(
                        move.apply(x_map.columns[idx]) == op(img),
                        lambda: f"intertwining {x} at {idx} for {perm} on {d}",
                    )
                res.check(
                    all(c.is_in_a() for _, c in img.unordered_items()),
                    lambda: f"half power leak at {idx} for {perm} on {d}",
                )
    return res


def _highest_weight_scalar(d: Composition, perm: tuple[int, ...]) -> Laurent:
    exponent = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                exponent += d[perm[i]] * d[perm[j]]
    return Laurent({4 * exponent: (-1) ** exponent})


def suite_embed(max_total: int) -> SuiteResult:
    res = SuiteResult("embed")
    for d in compositions(max_total):
        try:
            m = embed_refine(d)
        except AlgebraError as e:
            res.check(False, f"embed_refine({d}) raised {type(e).__name__}")
            continue
        total = sum(d)
        fine = (1,) * total
        for r in range(total + 1):
            table = canonical_basis(d, r)
            fine_table = canonical_basis(fine, r)
            for idx in table.order:
                res.check(
                    m.apply(table.rows[idx])
                    == fine_table.rows[orbits.dense_cell(d, idx)],
                    lambda: f"b{idx} not sent to its dense refinement in {d}",
                )
        res.check(True, lambda: f"construction checks of embed_refine({d})")
        if len(d) == 2 and max(d) <= 2:
            for sign in ("plus", "minus"):
                try:
                    move = r_move(d, [1], sign)
                    lifted = r_move(fine, lift_word(d, [1]), sign)
                    onto = embed_refine(move.target)
                except AlgebraError as e:
                    name = type(e).__name__
                    res.check(False, f"R_{sign} on {d} or its lift raised {name}")
                    continue
                lhs = onto.compose(move)
                rhs = lifted.compose(m)
                res.check(
                    lhs == rhs,
                    lambda: f"refinement compatibility of R_{sign} on {d}",
                )
    return res


SUITES = {
    "ring": suite_ring,
    "orbits": suite_orbits,
    "modules": suite_modules,
    "bar": suite_bar,
    "canonical": suite_canonical,
    "rmatrix": suite_rmatrix,
    "embed": suite_embed,
}


def run_all(max_total: int = 5) -> list[SuiteResult]:
    """Every suite at max_total, in sorted(SUITES) order.

    The suites run in this process and in one forked worker for each
    further CPU of the affinity set, at most one process per suite;
    there are no workers where fork is missing or the process runs
    other threads, since forking those can deadlock.  Every process
    pulls the next suite index from one shared pipe; a worker sends its
    results back pickled over a pipe of its own, writes nothing else
    and ends with os._exit.  A suite that raises stops its process
    pulling, and the exception of the first such suite in suite order
    is raised here with its type and message.  A worker that exits
    without reporting raises RuntimeError naming the suites nobody
    reported.  No worker outlives the call."""
    if type(max_total) is not int:
        raise ValueError(f"max_total must be an int, not {max_total!r}")
    if max_total < 1:
        raise ValueError("max_total must be at least 1")
    import pickle

    names = sorted(SUITES)
    suites = [SUITES[name] for name in names]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    forking = hasattr(os, "fork") and threading.active_count() == 1
    task_r, task_w = os.pipe()
    os.write(task_w, bytes(range(len(names))))
    os.close(task_w)
    done: dict[int, SuiteResult | Exception] = {}
    workers: dict[int, io.BufferedReader] = {}  # pid -> its result pipe, read end
    lost = []
    try:
        for _ in range(min(cpus, len(names)) - 1 if forking else 0):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: run on the ones there are
                os.close(result_r)
                os.close(result_w)
                break
            if pid == 0:
                _worker(task_r, result_w, suites, max_total)
            os.close(result_w)
            workers[pid] = open(result_r, "rb")
        _pull(task_r, suites, max_total, done)
        for pid, pipe in list(workers.items()):
            data = pipe.read()
            pipe.close()
            del workers[pid]
            status = os.waitpid(pid, 0)[1]
            try:
                done.update(pickle.loads(data))
            except Exception:
                lost.append(
                    f"pid {pid}, wait status {status},"
                    f" exit code {os.waitstatus_to_exitcode(status)}"
                )
    finally:
        os.close(task_r)
        if workers:
            import signal
        for pid, pipe in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    if lost:
        missing = ", ".join(n for i, n in enumerate(names) if i not in done)
        raise RuntimeError(
            f"verify worker exited without reporting ({'; '.join(lost)});"
            f" unreported suites: {missing}"
        )
    for i in sorted(done):
        if isinstance(done[i], Exception):
            raise done[i]
    return [done[i] for i in range(len(names))]


def _pull(
    task_r: int,
    suites: list[Callable[[int], SuiteResult]],
    max_total: int,
    done: dict[int, SuiteResult | Exception],
) -> None:
    """Run the suite of each index read from task_r until the pipe is
    empty or a suite raises; the raised exception is kept as the
    suite's result, and the indices still in the pipe are taken and
    dropped.  Every suite before one that raises has been taken by
    then, so the first exception in suite order is always kept."""
    while task := os.read(task_r, 1):
        i = task[0]
        try:
            done[i] = suites[i](max_total)
        except Exception as exc:
            done[i] = exc
            while os.read(task_r, len(suites)):
                pass
            return


def _worker(
    task_r: int,
    result_w: int,
    suites: list[Callable[[int], SuiteResult]],
    max_total: int,
) -> None:
    """The body of a forked worker: pull suites, send the results, and
    leave by os._exit whatever happens, so that no inherited buffer is
    flushed and no exit hook runs.  An exception that does not survive
    pickling is sent as a RuntimeError with its type and message."""
    import pickle

    code = 1
    try:
        done: dict[int, SuiteResult | Exception] = {}
        _pull(task_r, suites, max_total, done)
        for i, res in done.items():
            if isinstance(res, Exception):
                try:
                    pickle.loads(pickle.dumps(res))
                except Exception:
                    done[i] = RuntimeError(f"{type(res).__name__}: {res}")
        with open(result_w, "wb") as pipe:
            pipe.write(pickle.dumps(done))
        code = 0
    finally:
        os._exit(code)
