"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the CLI exit codes):

* structural errors -- malformed input, rank mismatches, objects that do not
  satisfy a precondition.  These derive from ``StructuralError``.
* mathematical negatives -- a well-posed question whose answer is "no"
  (a GKM violation, a function that does not descend, a class outside a
  span).  These derive from ``MathNegative`` and carry enough data to name
  the offending cone, face, or character.
"""


class PExpFanError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(PExpFanError):
    """Bad input or violated precondition."""


class MathNegative(PExpFanError):
    """A computation whose mathematically meaningful outcome is negative."""


# --- integer linear algebra ------------------------------------------------

class ZeroVector(StructuralError):
    pass


class NotIndependent(StructuralError):
    pass


# --- exponential sums -------------------------------------------------------

class RankMismatch(StructuralError):
    pass


class ZeroCharacter(StructuralError):
    pass


class NotDivisible(MathNegative):
    """Exact division by 1 - e^w left a remainder."""


class NotPolynomial(MathNegative):
    """A localization sum did not reduce to a Laurent polynomial."""


# --- fans --------------------------------------------------------------------

class NonPrimitiveRay(StructuralError):
    pass


class NotStronglyConvex(StructuralError):
    pass


class NotAFan(StructuralError):
    """Cones overlap in a non-face, or the cone list is degenerate."""


class UnsupportedDimension(StructuralError):
    """Non-simplicial cones are only handled in ambient rank <= 4."""


class NotSimplicial(StructuralError):
    pass


class RayOutsideSupport(StructuralError):
    pass


class ConeNotInFan(StructuralError):
    pass


class WorkBudgetExceeded(PExpFanError):
    """Work refused before it passes its budget."""


class ResultCheckFailed(PExpFanError):
    """An explicit check of a computed result failed: a defect, not bad input."""


class ResolutionCheckFailed(ResultCheckFailed):
    """A result check of stellar subdivision or resolution failed."""


# --- piecewise exponentials ---------------------------------------------------

class FanMismatch(StructuralError):
    pass


class GkmViolationError(MathNegative):
    """Raised when values fail face compatibility; carries the violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(f"{len(self.violations)} GKM face violation(s)")


class IncompatibleCartierData(StructuralError):
    pass


class NotDescendable(MathNegative):
    """Values on a subdivision do not come from the coarse fan.

    Attributes name the coarse cone index and the two differing values.
    """

    def __init__(self, coarse_index, value_a, value_b):
        self.coarse_index = coarse_index
        self.value_a = value_a
        self.value_b = value_b
        super().__init__(f"values differ over coarse cone {coarse_index}")


# --- localization / pairings ---------------------------------------------------

class NotSmooth(StructuralError):
    pass


class NotFullDimensional(StructuralError):
    pass


class NotComplete(StructuralError):
    pass


class NotInSpan(MathNegative):
    pass


class NotIntegral(MathNegative):
    """A solution exists over the fraction field but not over Z[M]."""


class DependentBasis(MathNegative):
    pass


class SingularGram(MathNegative):
    pass
