"""Shared exception types: the package's one failure contract.

Every refusal in the package raises one of the five classes below, all
subclasses of ``SnakedecError``, so callers catch by category without
importing the module that raised it; none is a bare builtin, and no
module uses ``assert``, so every check survives ``python -O``.

* ``ValidationError``: an operation was handed input it is not defined on.
* ``GradingViolation``: a map or complex breaks the bigrading.
* ``Singular``: a matrix that must be invertible is not.
* ``SizeLimitExceeded``: an exact search would pass its hard bound.
* ``InvariantViolation``: a check of the program's own work failed.
"""


class SnakedecError(Exception):
    """Base class for all package errors."""


class ValidationError(SnakedecError, ValueError):
    """An operation was handed an input it is not defined on: a
    characteristic that is not a prime int, a value that is not an int,
    operands over different fields or of incompatible shapes, a malformed
    complex, monomial or basis change, bases that do not line up, or a
    complex over the wrong ring, with d^2 != 0 or with length-zero arrows.
    Arithmetic is over R1, so an F[U,V] complex or basis change is refused
    there, naming ``reduce_mod_uv``.  Every simplify entry point,
    ``twostory.build`` included, refuses each such complex with the same
    text.  It is a ``ValueError`` too, for callers that catch that."""


class GradingViolation(SnakedecError):
    """A map or complex fails its required homogeneity constraints: a
    differential term off bidegree (-1, -1) is refused with this, in
    ``differential_rows``' words, by the strip and every simplify entry
    point, ``twostory.build`` included, as is an inhomogeneous basis
    change and a step of ``verify``'s replay of the two-story log."""


class Singular(SnakedecError):
    """A matrix that must be invertible is not (a basis change's scalar
    part, a shaft, an input to the canonical forms), or a polynomial
    divisor is zero."""


class SizeLimitExceeded(SnakedecError):
    """An exact computation would exceed a hard enumeration bound, so a
    caller can tell a matrix too big to search from a malformed one."""


class InvariantViolation(SnakedecError):
    """A structural invariant of the program's own work failed to hold.

    Raised by ``TwoStoryComplex.verify`` and by the depth loop when the
    program's own state disagrees with the complex it claims to describe
    or the loop runs past its proven round bound, by the move layer (turn,
    snowplow, convoy) for an arrow off its tier's boundary, a pair that
    splits or an arrow against the divergence order, by
    ``normalize_transition`` only for a transition that crosses
    bigradings, and by the ``gf`` polynomial and canonical-basis kernels
    when a result fails its reassembly check.
    """
