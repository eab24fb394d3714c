"""Exception hierarchy shared across the package.

Every failure of an internal exactness contract raises a subclass of
AlgebraError.  These signal implementation bugs or broken conventions,
never legitimate inputs; the command line maps them to exit code 1,
while plain usage errors (bad flags, malformed compositions) exit 2.
"""

__all__ = [
    "AlgebraError",
    "NonDivisibleError",
    "AmbientMismatchError",
    "TotalMismatchError",
    "IntegralityViolationError",
    "ConventionUnderdeterminedError",
    "TriangularityViolationError",
    "ObstructionNotAntisymmetricError",
    "NonzeroConstantTermError",
    "PurityViolationError",
    "HalfPowerLeakError",
    "InverseCheckFailedError",
    "NonReducedWordError",
    "EmbeddingCheckFailedError",
]


class AlgebraError(Exception):
    """Root of all exactness-contract violations."""


class NonDivisibleError(AlgebraError):
    """Exact division has no Laurent quotient; upstream integrality is broken."""


class AmbientMismatchError(AlgebraError):
    """Operands live over different ambient compositions."""


class TotalMismatchError(AlgebraError):
    """Orbit indices compared across different weight levels."""


class IntegralityViolationError(AlgebraError):
    """A divided-power image failed to divide by the quantum factorial."""


class ConventionUnderdeterminedError(AlgebraError):
    """The triangular solve for a quasi-R coefficient had no unique solution."""


class TriangularityViolationError(AlgebraError):
    """A monomial of the table solve is not unitriangular along the
    closure order, or a triangular walk left a remainder."""


class ObstructionNotAntisymmetricError(AlgebraError):
    """A bar obstruction coefficient is not negated by the bar map."""


class NonzeroConstantTermError(AlgebraError):
    """A bar obstruction coefficient has a nonzero constant term."""


class PurityViolationError(AlgebraError):
    """A multiplicity of the table solve has a negative coefficient or an
    exponent off the parity of its orbit dimensions."""


class HalfPowerLeakError(AlgebraError):
    """A matrix entry kept an odd half-power of q where only A is allowed."""


class InverseCheckFailedError(AlgebraError):
    """The two R-matrix signs failed to compose to the identity."""


class NonReducedWordError(AlgebraError):
    """A transposition word is longer than the permutation it spells."""


class EmbeddingCheckFailedError(AlgebraError):
    """The refinement embedding failed its intertwiner or isometry check."""
