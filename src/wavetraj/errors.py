"""Exception types shared across the package."""


class WavetrajError(Exception):
    """Base class for all package errors."""


class OutOfChart(WavetrajError):
    """A chart point failed the manifold's domain guard."""

    def __init__(self, point, message=""):
        self.point = point
        super().__init__(message or f"point {point} is outside the chart domain")


class NotPositiveDefinite(WavetrajError):
    """The metric matrix has an eigenvalue <= 0 at an evaluated point.

    point is None when a constant metric fails the check at construction.
    """

    def __init__(self, point, eigenvalue=None):
        self.point = point
        self.eigenvalue = eigenvalue
        where = f" at {point}" if point is not None else " as a constant"
        detail = f" (smallest eigenvalue {eigenvalue})" if eigenvalue is not None else ""
        super().__init__(f"metric not positive definite{where}{detail}")


class EigFailure(WavetrajError):
    """A generalized eigenproblem could not be solved."""


class InvalidInit(WavetrajError):
    """Initial data violates the chart guard or is non-finite."""


class OutOfRange(WavetrajError):
    """A query time lies outside the interval covered by a trajectory."""


class NotABlowup(WavetrajError):
    """Blow-up refinement found the trajectory reaches the horizon."""


class HypothesisViolated(WavetrajError):
    """A mathematical hypothesis required by an operation does not hold."""


class ParseError(WavetrajError):
    """Malformed scenario file or expression text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(WavetrajError):
    """Structurally valid input with an illegal or unknown field."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message)
