import time

import numpy as np
import pytest

from signedwalk import chartable, walk
from signedwalk.chartable import dixon_character_table
from signedwalk.errors import CapExceeded, ConsistencyFailure
from signedwalk.groups import group_from_spec
from signedwalk.irreps import UnitaryIrrep, fourier_distribution
from signedwalk.primes import factorize, is_prime, next_prime, next_prime_outside
from signedwalk.walk import SignedSequence, rho_monte_carlo

from conftest import random_sequence
from group_specs import sl2


def test_monte_carlo_distinct_cap(monkeypatch):
    G = group_from_spec(sl2(5))
    rng = np.random.default_rng(2)
    seq = random_sequence(G, 12, rng)
    monkeypatch.setattr(walk, "_MC_DISTINCT_CAP", 3)
    with pytest.raises(CapExceeded):
        rho_monte_carlo(seq, samples=50_000, seed=1)


def test_fourier_rejects_broken_representation_set(bench_groups, bench_irreps):
    G = bench_groups["sl2_3"]
    irreps = list(bench_irreps["sl2_3"])
    bad = irreps[-1]
    # a global phase wrecks the homomorphism property but keeps dimensions intact
    irreps[-1] = UnitaryIrrep(
        dim=bad.dim,
        matrices=bad.matrices * np.exp(0.7j),
        character=bad.character * np.exp(0.7j),
    )
    seq = SignedSequence.constant(G.element(1), 3)
    with pytest.raises(ConsistencyFailure, match="imaginary residue"):
        fourier_distribution(G, irreps, seq)


def test_non_integral_multiplicity_detected(bench_groups, monkeypatch):
    # the lift reads the multiplicities off powers of a primitive exponent-th
    # root of unity mod ell; with the identity in its place they are not the
    # multiplicities of any representation, and the lift must refuse them
    monkeypatch.setattr(chartable, "element_of_order", lambda order, ell: 1)
    for name in ("s3", "s4", "q8", "sl2_3", "sl2_5"):
        with pytest.raises(ConsistencyFailure, match="lifted multiplicities do not sum"):
            dixon_character_table(bench_groups[name])


def test_is_prime_and_next_prime():
    assert is_prime(2) and is_prime(33601) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(8401) and not is_prime(25201)
    assert next_prime(14) == 17
    assert next_prime_outside(2, {2, 3, 5}) == 7


def test_next_prime_outside_checks_the_bound_only_after_a_skip():
    # the first prime from a start past the bound is still returned when admissible
    assert next_prime_outside(10**9 + 8, set()) == 10**9 + 9
    with pytest.raises(CapExceeded, match="no admissible prime below"):
        next_prime_outside(999_999_937, {999_999_937})  # the next prime is 10^9 + 7


def test_factorize_semiprime_and_powers():
    assert factorize(2**10) == {2: 10}
    assert factorize(8400) == {2: 4, 3: 1, 5: 2, 7: 1}
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize((2**31 - 1) * 7) == {7: 1, 2**31 - 1: 1}


@pytest.mark.parametrize(
    "planted",
    [
        {999_983: 1, 1_000_003: 1},
        {999_979: 2, 1_000_033: 1, 2**61 - 1: 1},
        {2: 1, 1009: 3, 999_983: 1, 1_000_003: 2},
        {3: 1, 2**61 - 1: 1},
        {2**61 - 1: 1},
    ],
)
def test_factorize_planted_products_across_the_trial_bound(planted):
    # primes on both sides of the 10^6 trial-division bound
    n = 1
    for q, e in planted.items():
        n *= q**e
    assert factorize(n) == planted


def test_factorize_stops_trial_division_at_a_prime_cofactor():
    # a cofactor that passes `is_prime` ends the trial loop, which would
    # otherwise run on to 10^6 (about 0.08 s a call)
    m61, m89 = 2**61 - 1, 2**89 - 1
    cases = {
        m61: {m61: 1}, 3 * m61: {3: 1, m61: 1}, m89: {m89: 1},
        1009 * 1_000_003: {1009: 1, 1_000_003: 1},
    }
    start = time.perf_counter()
    for _ in range(5):
        for n, planted in cases.items():
            assert factorize(n) == planted
    assert time.perf_counter() - start < 0.5
