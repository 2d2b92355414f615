"""Shared exception types.

Every error raised across module boundaries lives here, so callers can
catch by category without importing the module that raised it.  These
classes are for conditions a caller can trigger, and for the invariants
that must survive ``python -O``: homogeneity in ``complexes``, in the
elimination behind strip and simplify and in ``verify``'s replay of the
two-story log (``GradingViolation``), malformed input to them and to the
``gf`` polynomial kernel (``ValidationError``), and the checks of the
program's own work in the two-story engine's ``verify`` and depth loop,
in ``normalize_transition``'s bigrading check and in the ``gf``
polynomial and canonical-basis kernels (``InvariantViolation``).  No
module uses ``assert``.
"""


class SnakedecError(Exception):
    """Base class for all package errors."""


class Singular(SnakedecError):
    """A matrix that must be invertible is not, or a polynomial divisor is
    zero."""


class DimensionMismatch(SnakedecError):
    """Operands have incompatible shapes or sizes."""


class SizeLimitExceeded(SnakedecError):
    """An exact computation would exceed a hard enumeration bound."""


class FieldMismatch(SnakedecError):
    """Operands live over different prime fields."""


class NotInvertible(SnakedecError):
    """A proposed basis change is not an isomorphism."""


class GradingViolation(SnakedecError):
    """A map or complex fails its required homogeneity constraints: a
    differential term off bidegree (-1, -1) is refused with this, in
    ``differential_rows``' words, by the strip and every simplify entry
    point, ``twostory.build`` included."""


class CountMismatch(SnakedecError):
    """Two simplified bases differ in rank, or in bigrading at some position."""


class StrandsDiverge(SnakedecError):
    """An arrow turned back through a floor hit a spot where its two strands
    stop running parallel."""


class WrongOrientation(SnakedecError):
    """An arrow removal needs the opposite comparison sign at the divergence."""


class BoundExceeded(SnakedecError):
    """The depth-raising loop ran past its proven round bound."""


class InvariantViolation(SnakedecError):
    """A structural invariant of the program's own work failed to hold.

    Raised by ``TwoStoryComplex.verify`` and by the depth loop when the
    program's own state disagrees with the complex it claims to describe,
    by ``normalize_transition`` only for a transition that crosses
    bigradings, and by the ``gf`` polynomial and canonical-basis kernels
    when a result fails its reassembly check; unlike ``assert`` it
    survives ``python -O``.
    """


class ValidationError(SnakedecError):
    """A complex or basis change is malformed, or an operation was handed
    an input it is not defined on (a complex over the wrong ring, one with
    d^2 != 0, or one that still has length-zero arrows).  Arithmetic is
    over R1, so an F[U,V] complex or basis change is refused there, naming
    ``reduce_mod_uv``.  Every simplify entry point, ``twostory.build``
    included, refuses each such complex with the same text."""
