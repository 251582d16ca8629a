"""Linear algebra and polynomial arithmetic over a prime field F_ell.

Everything here works on int64 numpy arrays with entries reduced mod ell.
Sizes stay modest (matrices up to the class-count cap, ell well below 2^31),
so schoolbook algorithms with explicit modular reductions are exact and fast
enough.

A polynomial has one form, which every function here returns and relies on: an
int64 array of residues in [0, ell), coefficients in ascending order, with no
trailing zero, so its degree is len - 1 and the zero polynomial is the empty
array.  Only `roots_mod` reduces its input to that form first.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded, ConsistencyFailure


def inv_mod(a: int, ell: int) -> int:
    return pow(int(a) % ell, -1, ell)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def matmul_mod(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """a @ b mod ell; falls back to exact object arithmetic when int64 cannot
    hold the accumulation."""
    if ell * ell * max(a.shape[1], 1) < 2**62:
        return (a.astype(np.int64) @ b.astype(np.int64)) % ell
    prod = (a.astype(object) @ b.astype(object)) % ell
    return prod.astype(np.int64)


def _row_reduce(M: np.ndarray, ncols: int, ell: int) -> list[int]:
    """Gauss-Jordan elimination of M (reduced mod ell) in place over its first
    ncols columns, one rank-1 update of all rows per pivot (products < ell^2 <
    2^62, so int64 is exact); returns the pivot columns, pivot r in row r."""
    m = M.shape[0]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        nz = M[row:, col].nonzero()[0]
        if not nz.size:
            continue
        piv = row + int(nz[0])
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
        lead = M[row, col:] * inv_mod(int(M[row, col]), ell) % ell
        rest = M[:, col:]  # columns left of col are zero in the pivot row
        rest -= M[:, col, None] * lead
        rest %= ell
        M[row, col:] = lead
        pivots.append(col)
    return pivots


def nullspace_mod(a: np.ndarray, ell: int) -> np.ndarray:
    """Basis of the right kernel as columns of an (n x k) array."""
    n = a.shape[1]
    M = a.copy().astype(np.int64) % ell
    pivots = _row_reduce(M, n, ell)
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((n, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -M[: len(pivots), free] % ell
    return basis


def solve_in_span(W: np.ndarray, X: np.ndarray, ell: int) -> np.ndarray:
    """Solve W @ A = X (mod ell) for A, with W of full column rank."""
    d = W.shape[1]
    aug = np.concatenate([W, X], axis=1).astype(np.int64) % ell
    if len(_row_reduce(aug, d, ell)) < d:
        raise ValueError("basis matrix is column-rank deficient")
    if np.any(aug[d:, d:]):
        raise ValueError("right-hand side leaves the span")
    return aug[:d, d:]


def charpoly_mod(A: np.ndarray, ell: int) -> np.ndarray:
    """Characteristic polynomial mod ell (monic, ascending coefficients).

    Similarity reduction to upper Hessenberg form, then the classical
    leading-minor recurrence.
    """
    H = A.copy().astype(np.int64) % ell
    n = H.shape[0]
    for j in range(n - 2):
        nz = H[j + 1 :, j].nonzero()[0]
        if not nz.size:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            H[[j + 1, piv]] = H[[piv, j + 1]]
            H[:, [j + 1, piv]] = H[:, [piv, j + 1]]
        # clear column j below the subdiagonal: H -> L H L^-1, L = I - f e_(j+1)^T
        f = H[j + 2 :, j] * inv_mod(int(H[j + 1, j]), ell) % ell
        H[j + 2 :] = (H[j + 2 :] - np.outer(f, H[j + 1])) % ell
        H[:, j + 1] = (H[:, j + 1] + matmul_mod(H[:, j + 2 :], f, ell)) % ell

    polys = [np.array([1], dtype=np.int64)]
    for k in range(1, n + 1):
        pk = np.zeros(k + 1, dtype=np.int64)
        prev = polys[k - 1]
        pk[1 : k + 1] = prev
        pk[:k] = (pk[:k] - H[k - 1, k - 1] * prev) % ell
        prod = 1
        for i in range(k - 2, -1, -1):
            prod = prod * H[i + 1, i] % ell
            coef = H[i, k - 1] * prod % ell
            if coef:
                pi = polys[i]
                pk[: i + 1] = (pk[: i + 1] - coef * pi) % ell
        polys.append(pk % ell)
    return polys[n]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def _trimmed(a: np.ndarray) -> np.ndarray:
    """a without its trailing zeros (a view), where a reduction may leave some."""
    k = len(a)
    while k and not a[k - 1]:
        k -= 1
    return a[:k]


def poly_divmod(a: np.ndarray, b: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, r) with a = q b + r and len(r) < len(b)."""
    if not len(b):
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return a[:0], a
    binv = inv_mod(int(b[db]), ell)
    q, r = np.zeros(len(a) - db, dtype=np.int64), a.copy()
    for d in range(len(a) - 1, db - 1, -1):
        c = r[d] * binv % ell
        if c:
            q[d - db] = c
            r[d - db : d + 1] = (r[d - db : d + 1] - c * b) % ell
    return q, _trimmed(r[:db])


def poly_gcd(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """The monic gcd of a and b (the empty array when both are zero)."""
    while len(b):
        a, b = b, poly_divmod(a, b, ell)[1]
    return a * inv_mod(int(a[-1]), ell) % ell if len(a) else a


def poly_pow_mod(base: np.ndarray, e: int, mod: np.ndarray, ell: int) -> np.ndarray:
    """base^e mod `mod`, for `mod` of degree n >= 1.  A product of two residues
    has degree <= 2n - 2; its coefficients from x^n up are folded back in one
    matrix product with the rows x^n, ..., x^(2n-2) mod `mod`."""
    if ell * ell * len(mod) >= 2**63:
        raise CapExceeded("modulus too large for int64 convolution")
    n = len(mod) - 1
    fold = np.zeros((n - 1, n), dtype=np.int64)
    row = -mod[:n] * inv_mod(int(mod[n]), ell) % ell  # x^n mod `mod`
    for k in range(n - 1):
        fold[k] = row
        row = (np.concatenate(([0], row[:-1])) + row[-1] * fold[0]) % ell

    def mul_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # both of length n
        prod = np.convolve(a, b) % ell
        return (prod[:n] + prod[n:] @ fold) % ell

    low = poly_divmod(base, mod, ell)[1]
    result, cur = np.pad(np.ones(1, dtype=np.int64), (0, n - 1)), np.pad(low, (0, n - len(low)))
    while e:
        if e & 1:
            result = mul_mod(result, cur)
        cur = mul_mod(cur, cur)
        e >>= 1
    return _trimmed(result)


def roots_mod(f: np.ndarray, ell: int) -> list[int]:
    """Distinct roots of f in F_ell, ell an odd prime, sorted ascending:
    gcd(f, x^ell - x), split by Cantor-Zassenhaus with shifts x + 0, 1, ...
    f is any integer coefficient array; it is reduced to the normal form first."""
    if ell == 2:
        raise ValueError("roots_mod needs an odd prime")
    f = _trimmed(np.asarray(f, dtype=np.int64) % ell)
    if len(f) < 2:
        return []
    xq = poly_pow_mod(np.array([0, 1], dtype=np.int64), ell, f, ell)
    diff = np.zeros(max(len(xq), 2), dtype=np.int64)
    diff[: len(xq)] = xq
    diff[1] = (diff[1] - 1) % ell
    roots: list[int] = []
    stack, shift = [poly_gcd(f, _trimmed(diff), ell)], 0
    while stack:
        h = stack.pop()
        if len(h) == 2:
            roots.append((-int(h[0]) * inv_mod(int(h[1]), ell)) % ell)
        while len(h) > 2:  # until a shift splits h
            x_plus = np.array([shift % ell, 1], dtype=np.int64)
            shift += 1
            w = poly_pow_mod(x_plus, (ell - 1) // 2, h, ell)  # not 0: h is squarefree
            w[0] = (w[0] - 1) % ell
            d1 = poly_gcd(h, _trimmed(w), ell)
            if 1 < len(d1) < len(h):
                stack += [d1, poly_divmod(h, d1, ell)[0]]
                break
    return sorted(roots)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def element_of_order(e: int, ell: int) -> int:
    """An element of exact multiplicative order e in F_ell^* (needs e | ell-1)."""
    from .primes import factorize

    if (ell - 1) % e != 0:
        raise ValueError("e does not divide ell - 1")
    checks = [e // q for q in sorted(factorize(e))] if e > 1 else []
    for a in range(2, ell):
        z = pow(a, (ell - 1) // e, ell)
        if z == 1 and e > 1:
            continue
        if all(pow(z, c, ell) != 1 for c in checks):
            return z
    raise ConsistencyFailure("no element of the requested order found")
