"""Exception types shared across the toolkit."""


class NrfError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(NrfError):
    pass


class DomainMismatch(NrfError):
    pass


class NotSquare(NrfError):
    pass


class DivisionByZeroFunction(NrfError):
    pass


class NotProper(NrfError):
    pass


class EvaluationAtPole(NrfError):
    pass


class NotStabilizable(NrfError):
    pass


class NotDetectable(NrfError):
    pass


class GainsNotStabilizing(NrfError):
    pass


class NotStrictlyProper(NrfError):
    pass


class PlacementFailed(NrfError):
    pass


class UnstableParameter(NrfError):
    pass


class SingularDiagonal(NrfError):
    pass


class CorrespondenceViolation(NrfError):
    pass


class InconsistentDimensions(NrfError):
    pass


class SingularCoupling(NrfError):
    pass


class NonDiscrete(NrfError):
    pass


class UnstableMap(NrfError):
    pass


class InvalidGrid(NrfError):
    pass


class InvariantViolation(NrfError):
    """Raised by loaders/validators; carries the name of the violated invariant."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)
