"""Exception types shared across the package, and the one exit-code rule.

The type decides the CLI exit code.  There are two bases: `CapExceeded`
(exit 3, "resource cap") and every other `SignedWalkError` (exit 2, "input
error", as are `ValueError` and `OSError`).  A subclass exists only where code
catches it by name (`NotInvertible`, `SplitFailure`) or where it names a family
of faults (`NotInGroup`, `ConsistencyFailure`); the message says which fault.
"""


class SignedWalkError(Exception):
    """Base class for all package-specific errors: an input error, exit 2."""


class CapExceeded(SignedWalkError):
    """A resource cap was hit (closure size, walk length, class count, prime
    search, power or factoring budget, explicit-matrix size): exit 3."""


class NotInGroup(SignedWalkError):
    """An element is outside the group, or elements of different families
    (kinds, sizes, primes, degrees) were combined."""


class NotInvertible(SignedWalkError):
    """A matrix required to be invertible is singular."""


class ConsistencyFailure(SignedWalkError):
    """A computation contradicted its own invariants (a class operator that
    does not split, a degree out of range, characters that are not orthogonal,
    a non-unitary or incomplete set of irreducibles, a failed factorization)."""


class SplitFailure(ConsistencyFailure):
    """Regular-representation splitting failed; `decompose_regular` retries."""
