"""Exception types shared across the package."""


class WavetrajError(Exception):
    """Base class for all package errors."""


class OutOfChart(WavetrajError):
    """A chart point failed the manifold's domain guard."""

    def __init__(self, point, message=""):
        self.point = point
        super().__init__(message or f"point {point} is outside the chart domain")


class NotPositiveDefinite(WavetrajError):
    """The metric matrix at point has an eigenvalue <= 0 (problem "positive definite"), an
    entry that is not finite ("finite") or an asymmetry beyond tolerance ("symmetric")."""

    def __init__(self, point, eigenvalue=None, problem="positive definite"):
        self.point = point
        self.eigenvalue = eigenvalue
        detail = f" (smallest eigenvalue {eigenvalue})" if eigenvalue is not None else ""
        super().__init__(f"metric not {problem} at {point}{detail}")


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


class EvaluationError(WavetrajError, ValueError):
    """A scenario expression could not be evaluated at a point.

    Raised for math-function domain and range errors, and, with Python-float
    inputs, for division by zero and complex powers.
    It stays a ValueError, so callers that map a failed evaluation to a
    validation error keep doing so.
    """

    def __init__(self, source, point, reason):
        self.source = source
        self.point = point
        super().__init__(f"expression {source!r} cannot be evaluated at {point}: {reason}")


class ValidationError(WavetrajError):
    """Structurally valid input with an illegal or unknown field."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message)
