"""Exception types shared across the toolkit, and the one rule by which an
audit turns a residual into a verdict."""

import numpy as np


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


def audit(invariant: str, deviation, tol: float, where: str = "") -> None:
    """Raise ``InvariantViolation(invariant)`` at the first probe point whose
    residual reaches ``tol``.

    ``deviation`` is a (K, rows, cols) stack with one point per probe, or one
    matrix or scalar for a single point; the residual at a point is its
    largest entry magnitude.  A point with a NaN entry has no residual and is
    skipped; with no residual at any point the audit fails.  A relative audit
    passes its deviation already scaled.
    """
    dev = np.abs(np.asarray(deviation))
    stack = dev.ndim == 3
    res = np.max(dev if stack else dev.reshape(1, 1, -1), axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(res >= tol)
    if bad.size:
        k = int(bad[0])
        detail = f"residual {res[k]:.3e} >= tolerance {tol:g}"
        detail += f" at probe point {k}" if stack else ""
        raise InvariantViolation(invariant, f"{where}: {detail}" if where else detail)
    if res.size and np.isnan(res).all():
        detail = "no point has a residual, each is NaN"
        raise InvariantViolation(invariant, f"{where}: {detail}" if where else detail)
