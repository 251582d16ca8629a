import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedwalk.errors import SignedWalkError
from signedwalk.walk import (
    central_binomial_bound,
    order_length_bound,
    prime_order_length_bound,
    rho_below_order_length_bound,
    signed_sum_check,
)

from conftest import naive_signed_sum_counts, pascal_central_binomial


def test_binomial_bound_small():
    assert central_binomial_bound(1) == Fraction(1, 2)
    assert central_binomial_bound(4) == Fraction(6, 16)


def test_binomial_bound_vs_pascal_oracle():
    for n in (7, 31, 64):
        assert central_binomial_bound(n) == Fraction(pascal_central_binomial(n), 2**n)


def test_order_length_bound_values():
    value, vacuous = order_length_bound(4, 100)
    assert value == pytest.approx(35.25) and vacuous
    value, vacuous = order_length_bound(1000, 10**6)
    assert value == pytest.approx(0.141) and not vacuous
    value, vacuous = order_length_bound(150, 10**6)
    assert value == pytest.approx(0.94) and not vacuous


def test_order_length_bound_preconditions():
    with pytest.raises(ValueError):
        order_length_bound(1, 10)
    with pytest.raises(ValueError):
        order_length_bound(10, 1)


def test_exact_comparison_helper():
    # bound is 141/150 = 0.94 when the order term dominates
    assert rho_below_order_length_bound(Fraction(19, 20), 150, 10**6) is False
    assert rho_below_order_length_bound(Fraction(9, 10), 150, 4)  # sqrt branch
    assert rho_below_order_length_bound(Fraction(93, 100), 150, 10**6)


def test_prime_order_length_values():
    assert prime_order_length_bound(149, 150, 400) == pytest.approx(
        2 / 149 + 120 / 150 + 19 / 20
    )
    assert prime_order_length_bound(10**6 + 3, 10**4, 10**8) == pytest.approx(
        2 / (10**6 + 3) + 0.012 + 0.0019, rel=1e-3
    )


def test_prime_order_length_monotone():
    base = prime_order_length_bound(11, 10, 16)
    assert prime_order_length_bound(13, 10, 16) < base
    assert prime_order_length_bound(11, 12, 16) < base
    assert prime_order_length_bound(11, 10, 25) < base


def test_prime_order_length_rejects_composite():
    with pytest.raises(ValueError):
        prime_order_length_bound(10, 5, 5)


def test_order_length_bound_with_partial_order_count():
    """The bound also applies with N = #elements of order >= sigma in place of n."""
    from signedwalk.elements import PermutationElement
    from signedwalk.groups import group_from_spec
    from signedwalk.walk import SignedSequence, exact_distribution

    from group_specs import symmetric

    G = group_from_spec(symmetric(4))

    swap = G.element(G.index_of(PermutationElement((1, 0, 2, 3))))
    cycle = G.element(G.index_of(PermutationElement((1, 2, 3, 0))))
    seq = SignedSequence((swap, cycle, cycle, swap, cycle, cycle, cycle, cycle))
    sigma = 4
    N = sum(k >= sigma for k in seq.orders())
    assert N == 6
    value, vacuous = order_length_bound(sigma, N)
    assert vacuous  # desk scale: 141/4 >> 1
    assert exact_distribution(G, seq).rho().fraction <= value


def test_signed_sum_all_ones_matches_binomial():
    for n in (1, 6, 13):
        res = signed_sum_check([1] * n)
        assert res.rho == central_binomial_bound(n)
        assert res.bound_holds


def test_signed_sum_two_terms():
    res = signed_sum_check([1, 2])
    assert res.rho == Fraction(1, 4)
    assert res.bound_holds  # 1/4 >= 1/(8 sqrt 2)


def test_signed_sum_rejects_zero():
    with pytest.raises(SignedWalkError, match="terms must be nonzero"):
        signed_sum_check([1, 0, 2])


def test_signed_sum_k_must_dominate():
    with pytest.raises(ValueError):
        signed_sum_check([3, 1], K=2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(-5, 5).filter(lambda x: x != 0), min_size=1, max_size=12
    )
)
def test_signed_sum_matches_naive_dp(a):
    res = signed_sum_check(a, K=5)
    counts = naive_signed_sum_counts(a)
    assert res.rho == Fraction(max(counts.values()), 2 ** len(a))
    assert counts.get(res.top_sum, 0) == max(counts.values())


def test_signed_sum_lower_bound_random_instances():
    rng = np.random.default_rng(555)
    for _ in range(50):
        K = int(rng.integers(1, 6))
        n = int(rng.integers(20, 201))
        signs = rng.integers(0, 2, size=n) * 2 - 1
        mags = rng.integers(1, K + 1, size=n)
        res = signed_sum_check(list(signs * mags), K=K)
        assert res.bound_holds
        # and the claimed exact comparison really is rho >= 1/(4 K sqrt n)
        assert float(res.rho) >= 1.0 / (4 * K * math.sqrt(n)) - 1e-15
