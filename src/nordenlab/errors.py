"""Exception hierarchy for nordenlab.

Every error raised by the library derives from :class:`NordenLabError`, so
callers (notably the CLI) can distinguish domain failures from programming
errors with a single except clause.
"""

from __future__ import annotations


class NordenLabError(Exception):
    """Base class for all nordenlab errors."""


class ParameterMismatchError(NordenLabError):
    """Arithmetic between polynomials over different parameter lists.

    Constants promote implicitly; two genuinely different parameter lists do
    not, to prevent silent variable capture.
    """


class PolyParseError(NordenLabError):
    """Polynomial text did not conform to the grammar."""


class ExponentOverflowError(NordenLabError):
    """An exponent past the field width of a packed exponent key."""


class DigitLimitError(NordenLabError):
    """A number past a limit: more digits than Python converts to text
    (4300 by default), or a parsed coefficient's ``bound``."""


class DimensionMismatchError(NordenLabError):
    """Vector/matrix/tensor operands of incompatible sizes."""


class SingularMatrixError(NordenLabError):
    """Matrix inversion failed; ``column`` is the 1-based pivot column
    where elimination found no usable row."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class NonSymmetricMatrixError(NordenLabError):
    """A symmetric matrix was required (metric input)."""


class DegeneratePlaneError(NordenLabError):
    """Sectional curvature requested for a plane with vanishing
    discriminant g(x,x)g(y,y) - g(x,y)^2."""


class StructureError(NordenLabError):
    """Invalid algebraic structure data: antisymmetry violations in
    structure constants, J^2 != -I, a non-Norden metric pairing, and
    similar construction-time failures."""


class SpecFileError(NordenLabError):
    """Algebra spec file rejected; ``line`` is the 1-based line number of
    the offending input when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
