"""Anti-concentration of random signed products in finite groups.

Computes the maximum point probability of products ∏_i A_i^{±1} (each sign
fair and independent) three independent ways -- exact big-integer convolution,
a character-theoretic trace formula, and seeded Monte Carlo -- and ships the
supporting machinery: group enumeration, Dixon character tables, explicit
unitary irreducibles, singular-value inequalities, and order-preserving
reductions of rational matrix groups modulo a prime.
"""

from .elements import GroupElement, MatrixElement, MulTable, PermutationElement, TableElement
from .groups import (
    ConjugacyClasses,
    FiniteGroup,
    center_and_centralizer,
    close_generators,
    conjugacy_classes,
    element_order,
    group_from_spec,
)
from .walk import (
    ExactDistribution,
    MonteCarloResult,
    RhoResult,
    SignedSequence,
    central_binomial_bound,
    exact_distribution,
    order_length_bound,
    prime_order_length_bound,
    rho_monte_carlo,
    signed_sum_check,
)
from .chartable import (
    CharacterTable,
    MultiplicityProfile,
    check_multiplicity_bounds,
    dixon_character_table,
    eigenvalue_multiplicities,
    max_character_ratio,
)
from .irreps import UnitaryIrrep, decompose_regular, fourier_distribution
from .spectral import (
    CascadeDiagnostics,
    SingularProfile,
    cascade_diagnostics,
    cos_spectrum,
    product_singular_bounds,
    singular_values,
    trace_vs_singular_sum,
    trig_inequality_scan,
)
from .embed import EmbeddingResult, RationalMatrix, bad_prime_set, embed_mod_p

__all__ = [name for name in dir() if not name.startswith("_")]
