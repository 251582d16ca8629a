"""Exception types shared across the package."""


class SignedWalkError(Exception):
    """Base class for all package-specific errors."""


class MixedVariants(SignedWalkError):
    """Elements of different kinds (or different ambient parameters) were combined."""


class CapExceeded(SignedWalkError):
    """A resource cap (closure size, walk length, distinct-product count) was hit."""


class NotInGroup(SignedWalkError):
    """An element does not belong to the enumerated group."""


class ElementNotInGroup(NotInGroup):
    """A sequence element does not belong to the enumerated group."""


class NotNonTrivial(SignedWalkError):
    """An identity element appeared where a non-trivial element is required."""


class TooManyClasses(SignedWalkError):
    """Character-table computation refused: class count above the supported cap."""


class NoSuitablePrime(SignedWalkError):
    """No working prime found within the search bound for the character-table field."""


class ConsistencyFailure(SignedWalkError):
    """A modular computation contradicted its own invariants (a class operator
    that does not split, a degree out of range, characters that are not
    orthogonal, a missing root of unity)."""


class SplitFailure(SignedWalkError):
    """Regular-representation splitting failed after the retry budget."""


class SizeCap(SignedWalkError):
    """Group too large for explicit representation matrices."""


class IncompleteIrreps(SignedWalkError):
    """Squared dimensions of the supplied irreducibles do not sum to |G|."""


class ImagTooLarge(SignedWalkError):
    """A quantity that must be real came out with a large imaginary part."""


class NonIntegralMultiplicity(SignedWalkError):
    """An eigenvalue multiplicity failed to round to an integer (bad character data)."""


class NotUnitary(SignedWalkError):
    """A matrix required to be unitary is not, within tolerance."""


class NoConvergence(SignedWalkError):
    """An iterative matrix factorization did not converge."""


class PowerCapExceeded(SignedWalkError):
    """Order detection hit its multiplication budget; result inconclusive."""


class NotInvertible(SignedWalkError):
    """A matrix required to be invertible is singular."""


class PrimeSearchExhausted(SignedWalkError):
    """No admissible prime found below the search bound."""
