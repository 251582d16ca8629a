from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedwalk import chartable
from signedwalk.modarith import (
    charpoly_mod,
    element_of_order,
    inv_mod,
    nullspace_mod,
    poly_divmod,
    poly_gcd,
    poly_pow_mod,
    roots_mod,
    solve_in_span,
    sqrt_mod,
)

from conftest import brute_force_roots


def charpoly_exact_oracle(A: np.ndarray, ell: int) -> np.ndarray:
    """Faddeev-LeVerrier over exact rationals, reduced mod ell at the end."""
    n = A.shape[0]
    M = [[Fraction(int(A[i, j])) for j in range(n)] for i in range(n)]

    def matmul(X, Y):
        return [
            [sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    Mk = [row[:] for row in M]
    for k in range(1, n + 1):
        ck = -sum(Mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                Mk[i][i] += ck
            Mk = matmul(M, Mk)
    out = [0] * (n + 1)
    for k, c in enumerate(coeffs):
        assert c.denominator == 1
        out[n - k] = int(c) % ell
    return np.array(out, dtype=np.int64)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_charpoly_matches_exact_oracle(seed, n):
    rng = np.random.default_rng(seed)
    ell = 33601
    A = rng.integers(0, ell, size=(n, n)).astype(np.int64)
    assert np.array_equal(charpoly_mod(A, ell), charpoly_exact_oracle(A, ell))


def test_charpoly_structured_matrices():
    ell = 151
    cases = [
        np.zeros((4, 4), dtype=np.int64),
        np.diag([1, 2, 3, 4]).astype(np.int64),
        np.diag(np.ones(3, dtype=np.int64), k=1),  # nilpotent
        np.array([[0, 1], [1, 0]], dtype=np.int64),
        np.block(
            [
                [np.array([[2, 1], [0, 2]]), np.zeros((2, 2), dtype=int)],
                [np.zeros((2, 2), dtype=int), np.array([[5, 0], [7, 5]])],
            ]
        ).astype(np.int64),
    ]
    for A in cases:
        assert np.array_equal(charpoly_mod(A, ell), charpoly_exact_oracle(A, ell))


def test_roots_with_planted_values():
    rng = np.random.default_rng(0)
    for ell in (151, 33601):
        roots_true = sorted({int(r) for r in rng.integers(0, ell, size=6)})
        f = np.array([1], dtype=np.int64)
        for r in roots_true:
            f = np.convolve(f, np.array([(-r) % ell, 1])) % ell
        assert roots_mod(f, ell) == roots_true


@pytest.mark.parametrize("ell", [3, 5, 7, 151, 4093])
def test_roots_match_brute_force(ell):
    # planted roots (one doubled) times x^2 - v, v a non-residue
    v = next(v for v in range(2, ell) if pow(v, (ell - 1) // 2, ell) == ell - 1)
    rng = np.random.default_rng(ell)
    for size in range(1, 7):
        planted = sorted({int(r) for r in rng.integers(0, ell, size=size)})
        f = np.array([(-v) % ell, 0, 1], dtype=np.int64)
        for r in planted + planted[:1]:
            f = np.convolve(f, np.array([(-r) % ell, 1])) % ell
        assert roots_mod(f, ell) == brute_force_roots(f, ell) == planted
    assert roots_mod(np.array([(-v) % ell, 0, 1]), ell) == []


def test_roots_refuses_ell_2():
    # x(x + 1) over F_2: the Cantor-Zassenhaus split needs an odd field size
    with pytest.raises(ValueError, match="odd prime"):
        roots_mod(np.array([0, 1, 1]), 2)


def test_roots_with_irreducible_factor():
    # (x^2 + 1)(x - 3) mod 151: -1 is a QR mod 151? 151 % 4 == 3, so no
    ell = 151
    f = np.convolve(np.array([1, 0, 1]), np.array([-3 % ell, 1])) % ell
    assert roots_mod(f, ell) == [3]


def test_poly_divmod_and_gcd():
    ell = 13
    a = np.array([1, 0, 0, 1], dtype=np.int64)  # x^3 + 1
    b = np.array([1, 1], dtype=np.int64)  # x + 1
    q, r = poly_divmod(a, b, ell)
    assert np.array_equal(np.convolve(q, b) % ell, a) and len(r) == 0
    g = poly_gcd(a, b, ell)
    assert np.array_equal(g, np.array([1, 1]))


def _random_poly(rng, degree: int, ell: int) -> np.ndarray:
    """A polynomial of the given degree in the normal form ([] for degree -1)."""
    a = rng.integers(0, ell, size=degree + 1).astype(np.int64)
    if degree >= 0:
        a[-1] = rng.integers(1, ell)
    return a


def _normal(a: np.ndarray, ell: int) -> bool:
    return a.dtype == np.int64 and np.all((0 <= a) & (a < ell)) and (len(a) == 0 or a[-1] != 0)


def _plus(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    out = np.zeros(max(len(a), len(b)), dtype=np.int64)
    out[: len(a)] += a
    out[: len(b)] += b
    return np.trim_zeros(out % ell, "b")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(-1, 12), st.integers(0, 12), st.sampled_from([3, 13, 33601])
)
def test_polynomials_stay_in_the_normal_form(seed, deg_a, deg_b, ell):
    rng = np.random.default_rng(seed)
    a, b = _random_poly(rng, deg_a, ell), _random_poly(rng, deg_b, ell)
    q, r = poly_divmod(a, b, ell)
    assert _normal(q, ell) and _normal(r, ell) and len(r) < len(b)
    qb = np.convolve(q, b) % ell if len(q) else q
    assert np.array_equal(_plus(qb, r, ell), a)
    g = poly_gcd(a, b, ell)
    assert _normal(g, ell) and g[-1] == 1
    assert not len(poly_divmod(a, g, ell)[1]) and not len(poly_divmod(b, g, ell)[1])
    if deg_b >= 1:
        w = poly_pow_mod(a, int(rng.integers(0, 40)), b, ell)
        assert _normal(w, ell) and len(w) < len(b)


def test_zero_is_the_empty_array():
    ell, zero = 13, np.zeros(0, dtype=np.int64)
    b = np.array([1, 1], dtype=np.int64)
    q, r = poly_divmod(zero, b, ell)
    assert len(q) == 0 and len(r) == 0
    q, r = poly_divmod(b, b, ell)
    assert q.tolist() == [1] and len(r) == 0
    assert len(poly_gcd(zero, zero, ell)) == 0
    assert poly_gcd(zero, np.array([2, 4]), ell).tolist() == [7, 1]  # (2 + 4x) / 4
    assert len(poly_pow_mod(np.array([0, 1]), 5, np.array([0, 1]), ell)) == 0  # x^5 mod x
    with pytest.raises(ZeroDivisionError):
        poly_divmod(b, zero, ell)
    assert roots_mod(np.zeros(4, dtype=np.int64), ell) == []
    assert roots_mod(np.array([5, 0, 0]), ell) == []
    assert roots_mod(np.array([0, 1, 0, 0]), ell) == [0]


@pytest.mark.parametrize("ell", [257, 33601, 1000003])
@pytest.mark.parametrize("degree", [100, 300])
def test_roots_of_long_split_polynomials(ell, degree):
    # planted distinct roots (the smallest doubled to reach the degree) times x^2 - v,
    # v a non-residue
    v = next(v for v in range(2, ell) if pow(v, (ell - 1) // 2, ell) == ell - 1)
    rng = np.random.default_rng(degree + ell)
    planted = sorted(rng.choice(min(ell, 10**6), size=2 * degree // 3, replace=False).tolist())
    f = np.array([(-v) % ell, 0, 1], dtype=np.int64)
    for root in planted + planted[: degree - 2 - len(planted)]:
        f = np.convolve(f, np.array([(-root) % ell, 1])) % ell
    assert len(f) == degree + 1
    assert roots_mod(f, ell) == planted


def _roots_by_evaluation(f: np.ndarray, ell: int) -> list[int]:
    """Roots of f in F_ell by Horner evaluation at every residue at once."""
    x = np.arange(ell, dtype=np.int64)
    acc = np.zeros(ell, dtype=np.int64)
    for c in f[::-1]:
        acc = (acc * x + int(c)) % ell
    return np.flatnonzero(acc == 0).tolist()


def test_roots_of_the_sl2_49_class_operators(sl2_49, monkeypatch):
    # every characteristic polynomial that Dixon's splitting factors on SL2(49):
    # 19 of the 91 operators it restricts to a space; the other 72 are scalar
    # there and pass the space through unfactored
    seen = []

    def recording(f, ell):
        roots = roots_mod(f, ell)
        seen.append(roots == _roots_by_evaluation(f, ell))
        return roots

    monkeypatch.setattr(chartable, "roots_mod", recording)
    chartable.dixon_character_table(sl2_49)
    assert len(seen) == 19 and all(seen)


def test_nullspace_and_solve():
    ell = 151
    rng = np.random.default_rng(1)
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]], dtype=np.int64)
    K = nullspace_mod(A, ell)
    assert K.shape[1] == 1 and not np.any((A @ K) % ell)
    W = rng.integers(0, ell, size=(6, 3)).astype(np.int64)
    X = (W @ rng.integers(0, ell, size=(3, 2))) % ell
    assert np.array_equal((W @ solve_in_span(W, X, ell)) % ell, X)


def test_sqrt_mod_both_branches():
    for ell in (151, 33601, 13):  # 3 mod 4 and 1 mod 4 cases
        for a in (1, 4, 9, 2):
            try:
                s = sqrt_mod(a, ell)
            except ValueError:
                assert pow(a, (ell - 1) // 2, ell) == ell - 1
                continue
            assert s * s % ell == a % ell


def test_element_of_order():
    z = element_of_order(8400, 33601)
    assert pow(z, 8400, 33601) == 1
    for q in (2, 3, 5, 7):
        assert pow(z, 8400 // q, 33601) != 1
    assert element_of_order(1, 7) in range(1, 7)
    with pytest.raises(ValueError):
        element_of_order(5, 13)


def test_inv_mod():
    assert inv_mod(7, 151) * 7 % 151 == 1
