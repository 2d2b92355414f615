"""Shared exception types.

Every error raised across module boundaries lives here, so callers can
catch by category without importing the module that raised it.  These
classes are for conditions a caller can trigger with legitimate input, and
for the invariants of the sparse matrix kernel in ``complexes``, which must
survive ``python -O``; other internal checks still use plain ``assert``.
"""


class SnakedecError(Exception):
    """Base class for all package errors."""


class Singular(SnakedecError):
    """A matrix that must be invertible is not."""


class DimensionMismatch(SnakedecError):
    """Operands have incompatible shapes or sizes."""


class SizeLimitExceeded(SnakedecError):
    """An exact computation would exceed a hard enumeration bound."""


class FieldMismatch(SnakedecError):
    """Operands live over different prime fields."""


class NotInvertible(SnakedecError):
    """A proposed basis change is not an isomorphism."""


class GradingViolation(SnakedecError):
    """A map or complex fails its required homogeneity constraints."""


class CountMismatch(SnakedecError):
    """Two simplified bases disagree in size and cannot be aligned."""


class PatternMismatch(SnakedecError):
    """A local rewrite was requested at a site that does not match it."""


class StrandsDiverge(SnakedecError):
    """An arrow slide hit a spot where the two strands stop running parallel."""


class WrongOrientation(SnakedecError):
    """An arrow removal needs the opposite comparison sign at the divergence."""


class Parallel(SnakedecError):
    """The two strands of an arrow never diverge, so no removal exists."""


class BoundExceeded(SnakedecError):
    """The depth-raising loop ran past its proven round bound."""


class BadPeriod(SnakedecError):
    """A cyclic word does not have the minimal even period it claims."""


class InvalidDescriptor(SnakedecError):
    """A piece descriptor fails its well-formedness conditions."""


class BudgetExceeded(SnakedecError):
    """A brute-force search ran out of budget before reaching a verdict."""


class ComplexSyntaxError(SnakedecError):
    """A complex file failed to parse.

    Attributes
    ----------
    line : int
        1-based line number of the offending line.
    """

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(SnakedecError):
    """A parsed complex file fails semantic validation."""
