"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage/parse problems exit
with 2, resource-cap violations with 3.
"""


class ChaosLabError(Exception):
    """Base class for all package-specific errors."""


class EnumerationCapError(ChaosLabError):
    """An enumeration would exceed the configured size cap."""


class InsufficientPrecisionError(ChaosLabError, ValueError):
    """A dyadic point does not carry enough bits for the requested function."""


class QuadratureError(ChaosLabError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best estimate and the tolerance actually achieved.
    """

    def __init__(self, message: str, value: float, achieved_tol: float):
        super().__init__(message)
        self.value = value
        self.achieved_tol = achieved_tol


class MatrixParseError(ChaosLabError):
    """A matrix file failed to parse; carries line/column diagnostics."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
