"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage/parse problems exit
with 2, resource-cap violations with 3.
"""


class ChaosLabError(Exception):
    """Base class for all package-specific errors."""


class EnumerationCapError(ChaosLabError):
    """An enumeration would exceed the configured size cap."""

    @staticmethod
    def check(what: str, size: int, cap: int) -> None:
        """Raise ``"<what> <size> exceeds cap <cap>"`` if ``size`` is over ``cap``."""
        if size > cap:
            raise EnumerationCapError(f"{what} {size} exceeds cap {cap}")


class InsufficientPrecisionError(ChaosLabError, ValueError):
    """A dyadic point does not carry enough bits for the requested function."""


class MatrixParseError(ChaosLabError):
    """A matrix file failed to parse; carries line/column diagnostics."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
