import contextlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import qsl2.canonical as canonical_mod  # noqa: E402
import qsl2.rmatrix as rmatrix_mod  # noqa: E402
from qsl2.modules import ModuleVector, enumerate_basis  # noqa: E402
from qsl2.qring import Laurent  # noqa: E402

# The fault injections of the test suite.  The package builds every Psi
# image under its own checked quasi-R coefficients, and solves every
# canonical table with none; these helpers plant a wrong coefficient
# list or a wrong braiding composition from the outside and leave no
# trace in the per-process memo store.


@contextlib.contextmanager
def solved_under(kappa):
    """Within the block, every Psi column (bar_involution, the pair
    braidings, and the test references built on canonical._psi_basis)
    reads kappa_n as kappa[n] from the coefficient list kappa, as given
    and unchecked, in place of the checked closed-form quasi-R
    coefficients: it replaces canonical._kappa, the one read of kappa by
    Psi, and so compute_quasi_r too.  A zero entry just adds nothing to
    Theta; a read past the end of the list is a ValueError, "too short",
    raised here, since the package itself hands Theta no list.
    Canonical tables read no kappa, so a table solved in the block is
    the true one.
    Every cache is cleared on entry and on exit, so no result of the
    block outlives it and no earlier result leaks into it."""
    kappa = list(kappa)

    def planted(n):
        if n >= len(kappa):
            raise ValueError(
                f"coefficient list of length {len(kappa)} too short for kappa_{n}"
            )
        return kappa[n]

    real = canonical_mod._kappa
    canonical_mod.clear_caches()
    canonical_mod._kappa = planted
    try:
        yield
    finally:
        canonical_mod._kappa = real
        canonical_mod.clear_caches()


_R_PLUS_STEPS = {
    # Theta_R = bar Psi on a pair, as in rmatrix._r_plus_columns
    "theta": lambda u: canonical_mod.bar_involution(u).map_coefficients(Laurent.bar),
    "cartan": rmatrix_mod._cartan_step,
    "swap": rmatrix_mod._swap_step,
}


def r_plus_columns(d1, d2, step_order=("theta", "cartan", "swap"), with_scalar=True):
    """The standard-basis columns of the positive pair braiding, built
    by the steps of step_order in turn and then, unless with_scalar is
    false, scaled by (-q^(3/2))^(d1 d2).  With the defaults this is
    rmatrix._r_plus_columns."""
    scalar = Laurent({3 * d1 * d2: (-1) ** (d1 * d2)})
    columns = {}
    for r in range(d1 + d2 + 1):
        for idx in enumerate_basis((d1, d2), r):
            u = ModuleVector.basis((d1, d2), idx)
            for step in step_order:
                u = _R_PLUS_STEPS[step](u)
            columns[idx] = u.scale(scalar) if with_scalar else u
    return columns
