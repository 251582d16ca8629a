from fractions import Fraction

import numpy as np
import pytest

from signedwalk import embed
from signedwalk.embed import (
    RationalMatrix,
    bad_prime_set,
    embed_mod_p,
    rational_matrices_from_json,
    rational_order,
    reduce_matrix_mod_p,
)
from signedwalk.errors import CapExceeded, NotInvertible, SignedWalkError


def test_rational_order_finite_cases():
    assert rational_order(RationalMatrix.from_rows([[-1, 0], [0, -1]])) == 2
    rot4 = RationalMatrix.from_rows([[0, -1], [1, 0]])
    assert rational_order(rot4) == 4
    rot6 = RationalMatrix.from_rows([[1, -1], [1, 0]])  # companion of x^2 - x + 1
    assert rational_order(rot6) == 6
    assert rational_order(RationalMatrix.identity(3)) == 1


def test_rational_order_infinite_cases():
    assert rational_order(RationalMatrix.from_rows([[1, 1], [0, 1]])) is None
    assert rational_order(RationalMatrix.from_rows([[2, 0], [0, 1]])) is None
    assert (
        rational_order(RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]])) is None
    )


def test_singular_rejected():
    with pytest.raises(NotInvertible):
        RationalMatrix.from_rows([[1, 2], [2, 4]])


def test_unipotent_deviations_are_squares():
    # powers of the unipotent are [[1, j], [0, 1]], so the deviation is j^2
    A = RationalMatrix.from_rows([[1, 1], [0, 1]])
    report = bad_prime_set([A], 5)
    assert sorted(report.primes) == [2, 3]
    assert report.orders == [None]


def test_minus_identity_bad_primes():
    report = bad_prime_set([RationalMatrix.from_rows([[-1, 0], [0, -1]])], 10)
    assert sorted(report.primes) == [2]
    assert report.orders == [2]


def test_diag2_bad_primes_track_mersenne_factors():
    report = bad_prime_set([RationalMatrix.from_rows([[2, 0], [0, 1]])], 6)
    # deviations at exponent j contain (2^j - 1)^2; j <= 5 brings 3, 7, 5, 31
    assert {3, 7, 5, 31}.issubset(report.primes)
    assert 2 in report.primes  # determinant numerator


def test_identity_input_rejected():
    with pytest.raises(SignedWalkError, match="matrix 0 is the identity"):
        bad_prime_set([RationalMatrix.identity(2)], 4)


def test_embed_unipotent():
    res = embed_mod_p([RationalMatrix.from_rows([[1, 1], [0, 1]])], 5, p_min=2)
    assert res.prime == 5
    assert res.entries[0].image_order == 5
    assert res.entries[0].clause == "ii"


def test_embed_minus_identity():
    res = embed_mod_p([RationalMatrix.from_rows([[-1, 0], [0, -1]])], 10, p_min=2)
    assert res.prime == 3
    assert res.entries[0].image_order == 2
    assert res.entries[0].clause == "i"


def test_embed_diag2_clause_two():
    res = embed_mod_p([RationalMatrix.from_rows([[2, 0], [0, 1]])], 6, p_min=2)
    assert res.entries[0].clause == "ii"
    assert res.entries[0].image_order >= 6
    # the image order is the multiplicative order of 2 mod p
    p = res.prime
    assert pow(2, res.entries[0].image_order, p) == 1


def test_embed_denominators_excluded():
    A = RationalMatrix.from_rows([[Fraction(1, 3), 0], [0, 3]])
    res = embed_mod_p([A], 4)
    assert 3 in res.excluded
    assert res.prime != 3


def test_embed_homomorphism_residues():
    A = RationalMatrix.from_rows([[1, 1], [0, 1]])
    B = RationalMatrix.from_rows([[1, 0], [1, 1]])
    res = embed_mod_p([A, B], 4)
    p = res.prime
    rng = np.random.default_rng(0)
    mats = [A, B]
    imgs = res.images
    for _ in range(100):
        i, j = (int(x) for x in rng.integers(0, 2, size=2))
        lhs = reduce_matrix_mod_p(mats[i].mul(mats[j]), p)
        rhs = imgs[i].mul(imgs[j])
        assert lhs == rhs


def test_embed_deterministic_smallest_prime():
    A = RationalMatrix.from_rows([[1, 1], [0, 1]])
    first = embed_mod_p([A], 5, p_min=2)
    second = embed_mod_p([A], 5, p_min=2)
    assert first.prime == second.prime == 5
    raised = embed_mod_p([A], 5, p_min=7)
    assert raised.prime == 7


def test_embed_respects_default_pmin():
    A = RationalMatrix.from_rows([[-1, 0], [0, -1]])
    res = embed_mod_p([A], 4)  # default p_min = max(m+1, 5) = 5
    assert res.prime >= 5


def test_json_parsing_with_fraction_strings():
    mats = rational_matrices_from_json([[["1/2", 0], [0, 2]]])
    assert mats[0].entries[0] == Fraction(1, 2)


def test_result_json_shape():
    res = embed_mod_p([RationalMatrix.from_rows([[1, 1], [0, 1]])], 5, p_min=2)
    payload = res.to_json()
    assert payload["prime"] == 5
    assert payload["report"][0]["clause"] == "ii"
    assert payload["report"][0]["original_order"] is None
    assert "2" in payload["excluded_primes"]


def test_inconclusive_order_is_treated_as_infinite(monkeypatch):
    # the unipotent matrix needs more than one product to test A^12 = I, so a
    # power budget of 1 leaves its order undecided; the exponents then run to
    # n - 1, as for a known infinite order
    unipotent = RationalMatrix.from_rows([[1, 1], [0, 1]])
    conclusive = bad_prime_set([unipotent], 6)
    monkeypatch.setattr(embed, "POWER_CAP", 1)
    with pytest.raises(CapExceeded, match="power computation exceeded 1 multiplications"):
        rational_order(unipotent)
    report = bad_prime_set([unipotent], 6)
    assert report.orders == conclusive.orders == [None]
    assert report.primes == conclusive.primes and report.reasons == conclusive.reasons
