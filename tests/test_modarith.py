from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedwalk import chartable
from signedwalk.errors import CapExceeded
from signedwalk.modarith import (
    _row_reduce,
    charpoly_mod,
    element_of_order,
    inv_mod,
    matmul_mod,
    nullspace_mod,
    poly_divmod,
    poly_gcd,
    poly_pow_mod,
    roots_mod,
    solve_in_span,
)

from conftest import brute_force_roots, naive_nullspace, naive_row_reduce, naive_solve_in_span


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
    # 17 of the 49 operators it restricts to a space; the other 32 are scalar
    # there and pass the space through unfactored
    seen = []

    def recording(f, ell):
        roots = roots_mod(f, ell)
        seen.append(roots == _roots_by_evaluation(f, ell))
        return roots

    monkeypatch.setattr(chartable, "roots_mod", recording)
    chartable.dixon_character_table(sl2_49)
    assert len(seen) == 17 and all(seen)


def test_nullspace_and_solve():
    ell = 151
    rng = np.random.default_rng(1)
    A = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]], dtype=np.int64)
    K = nullspace_mod(A, ell)
    assert K.shape[1] == 1 and not np.any((A @ K) % ell)
    W = rng.integers(0, ell, size=(6, 3)).astype(np.int64)
    X = (W @ rng.integers(0, ell, size=(3, 2))) % ell
    assert np.array_equal((W @ solve_in_span(W, X, ell)) % ell, X)


ELIMINATION_MODULI = [7, 33601, 2**31 - 1]  # 2^31 - 1: the largest table prime


def _product_mod(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    return ((a.astype(object) @ b.astype(object)) % ell).astype(np.int64)


def _elimination_cases(ell: int) -> list[np.ndarray]:
    """Seeded matrices mod ell of several shapes: uniform ones, rank-deficient
    products of thinner factors, ones whose first column is zero above its last
    row (so the first pivot needs a row swap), and the zero matrix."""
    rng = np.random.default_rng(ell % 1000)
    cases = []
    for m, n in [(1, 1), (1, 4), (4, 1), (3, 5), (6, 6), (8, 4), (5, 11), (12, 12)]:
        a = rng.integers(0, ell, size=(m, n), dtype=np.int64)
        k = max(1, min(m, n) // 2)
        low = _product_mod(rng.integers(0, ell, size=(m, k)), rng.integers(0, ell, size=(k, n)), ell)
        swap = a.copy()
        swap[: m - 1, 0] = 0
        cases += [a, low, swap, np.zeros((m, n), dtype=np.int64)]
    return cases


@pytest.mark.parametrize("ell", ELIMINATION_MODULI)
def test_row_reduce_matches_the_loop(ell):
    ranks = set()
    for a in _elimination_cases(ell):
        for ncols in {a.shape[1], max(1, a.shape[1] // 2)}:
            got, want = a.copy(), a.copy()
            pivots = _row_reduce(got, ncols, ell)
            assert pivots == naive_row_reduce(want, ncols, ell)
            assert np.array_equal(got, want)
            ranks.add(len(pivots) < min(a.shape))
    assert ranks == {True, False}  # both full-rank and rank-deficient cases


@pytest.mark.parametrize("ell", ELIMINATION_MODULI)
def test_nullspace_matches_the_loop(ell):
    for a in _elimination_cases(ell):
        K = nullspace_mod(a, ell)
        assert np.array_equal(K, naive_nullspace(a, ell))
        assert not np.any(_product_mod(a, K, ell))


@pytest.mark.parametrize("ell", ELIMINATION_MODULI)
def test_solve_in_span_matches_the_loop(ell):
    rng = np.random.default_rng(ell % 997)
    for m, d, k in [(1, 1, 1), (4, 2, 3), (6, 6, 2), (9, 4, 4), (12, 5, 1)]:
        W = np.zeros((m, d), dtype=np.int64)
        while len(naive_row_reduce(W.copy(), d, ell)) < d:  # redraw until of full rank
            W = rng.integers(0, ell, size=(m, d), dtype=np.int64)
            W[: m - 1, 0] = 0  # the first pivot sits in the last row
        C = rng.integers(0, ell, size=(d, k), dtype=np.int64)
        X = _product_mod(W, C, ell)
        A = solve_in_span(W, X, ell)
        assert np.array_equal(A, naive_solve_in_span(W, X, ell)) and np.array_equal(A, C)
        if m > d:  # a right-hand side outside the span of W
            off = X.copy()
            off[:, 0] = rng.integers(0, ell, size=m)
            for solve in (solve_in_span, naive_solve_in_span):
                with pytest.raises(ValueError, match="leaves the span"):
                    solve(W, off, ell)
        if d > 1:  # a basis with a repeated column
            flat = W.copy()
            flat[:, 1] = flat[:, 0]
            for solve in (solve_in_span, naive_solve_in_span):
                with pytest.raises(ValueError, match="rank deficient"):
                    solve(flat, X, ell)


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


def test_matmul_mod_object_fallback_matches_python_ints():
    # at ell = 2^31 - 1 a length-4 dot product can reach 4 (ell - 1)^2 > 2^63,
    # so the product is taken in object arithmetic
    ell = 2**31 - 1
    rng = np.random.default_rng(5)
    for a in (rng.integers(0, ell, size=(3, 4)), np.full((3, 4), ell - 1)):
        b = rng.integers(0, ell, size=(4, 2))
        got = matmul_mod(a, b, ell)
        want = [
            [sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % ell for j in range(2)]
            for i in range(3)
        ]
        assert got.dtype == np.int64 and got.tolist() == want


def test_poly_pow_mod_refuses_a_modulus_past_int64():
    # ell^2 * len(mod) >= 2^63: the folded products would overflow int64
    ell = 2**31 - 1
    mod = np.array([1, 0, 1], dtype=np.int64)
    with pytest.raises(CapExceeded, match="modulus too large for int64 convolution"):
        poly_pow_mod(np.array([0, 1], dtype=np.int64), 5, mod, ell)
