"""Exception types raised across the package."""


class BisyncError(Exception):
    """Base class for all package-specific errors."""


class BadInput(BisyncError):
    """Malformed constructor input (shape, dtype, or value constraints)."""


class ShapeMismatch(BisyncError):
    """Operands have incompatible dimensions or index roles."""


class NotHermitian(BisyncError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotSynchronous(BisyncError):
    """A game required to be synchronous is not."""


class InvalidDensity(BisyncError):
    """A tensor required to be a conditional probability density is not."""


class BadWeights(BisyncError):
    """Convex-combination weights are negative or do not sum to one."""


class NotBijective(BadInput):
    """A map required to be a permutation is not a bijection."""


class PreconditionFailed(BisyncError):
    """An operation's documented precondition does not hold."""


class TooLarge(BisyncError):
    """Problem size exceeds the guard for a combinatorial routine."""


class UnverifiedSystem(BisyncError):
    """A projective system failed verification of its defining relations."""


class NonRealGram(BisyncError):
    """A Gram matrix expected to be real has an imaginary part beyond tolerance."""


class NegativeEntry(BisyncError):
    """An entry expected to be nonnegative is negative beyond tolerance."""


class NotCP(BisyncError):
    """A map required to be completely positive is not."""


class NotUnitalChannel(BisyncError):
    """A map required to be a unital channel is not."""


class InternalMismatch(BisyncError):
    """Two independent internal computations of the same object disagree."""


class SolverFailed(BisyncError):
    """A numerical solver reported no optimum, or an answer that fails its check."""
