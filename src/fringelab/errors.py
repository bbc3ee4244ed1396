"""Exception types shared across the package."""


class FringelabError(Exception):
    """Base class for all package-specific errors."""


class InvalidPreorder(FringelabError):
    """A degree sequence is not the preorder degree sequence of any tree.

    Carries ``index``, the first position (0-based) where the partial-sum
    condition fails, or ``None`` when the total is wrong.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InvalidDegreeStatistic(FringelabError):
    """Degree counts violate the balance identity sum n(i) = 1 + sum i*n(i)."""


class InvalidDegreeSequence(FringelabError):
    """Per-vertex degrees do not sum to n - 1."""


class InvalidPath(FringelabError):
    """A degree word whose walk does not end at -1: it is not a bridge, so no
    rotation of it is an excursion."""


class CapExceeded(FringelabError):
    """An exhaustive enumeration was requested beyond its configured cap."""


class SizeTooSmall(FringelabError):
    """A size-dependent check was asked for at a size too small for it."""


class DuplicatePatterns(FringelabError):
    """Pattern trees passed to a joint moment must be pairwise distinct."""


class AttemptsExhausted(FringelabError):
    """Rejection sampling gave up; carries the observed acceptance rate."""

    def __init__(self, message, acceptance_rate=0.0):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


class InfeasibleSize(FringelabError):
    """No outcome of the requested size has positive probability."""


class IrrationalWeights(FringelabError):
    """Exact-mode arithmetic requested for non-rational weights."""


class NotConverged(FringelabError):
    """Root finding failed to reach the requested tolerance."""


class UnsupportedRegime(FringelabError):
    """Covariance formulas requested outside their supported regime."""


class TooFewSamples(FringelabError):
    """A statistical test needs more samples than were supplied."""
