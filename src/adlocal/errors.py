"""Exception types shared across the package."""


class AdlocalError(Exception):
    """Base class for all library errors."""


class CarrierTooLargeError(AdlocalError):
    """Enumeration refused: the carrier is too large to scan exhaustively."""


class ShapeMismatchError(AdlocalError):
    """Matrix operands have incompatible dimensions or base rings."""


class DimensionError(AdlocalError):
    """A matrix dimension is too small for the requested construction."""


class NonCommutativeBaseError(AdlocalError):
    """Witness extraction requires a commutative base ring (force=True probes anyway)."""


class InconsistentOracleError(AdlocalError):
    """A witness oracle returned answers that cannot come from a single map."""


class MissingWitnessError(AdlocalError):
    """The off-diagonal assembly was given an incomplete witness table."""


class VerificationFailedError(AdlocalError):
    """An end-to-end pipeline produced an element failing its defining identity."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class ClosureBudgetError(AdlocalError):
    """A subring closure would have more than ELEMENT_CAP elements."""


class PreconditionError(AdlocalError):
    """A mathematical precondition does not hold for the given inputs."""
