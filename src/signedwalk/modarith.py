"""Linear algebra and polynomial arithmetic over a prime field F_ell.

Everything here works on int64 numpy arrays with entries reduced mod ell.
Sizes stay modest (matrices up to the class-count cap, ell well below 2^31),
so schoolbook algorithms with explicit modular reductions are exact and fast
enough.  Polynomials are coefficient arrays in ascending order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyFailure


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
    ncols columns; returns the pivot columns, pivot r sitting in row r."""
    m = M.shape[0]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        nz = np.flatnonzero(M[row:, col])
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            M[[row, piv]] = M[[piv, row]]
        M[row] = M[row] * inv_mod(int(M[row, col]), ell) % ell
        for r in range(m):
            if r != row and M[r, col]:
                M[r] = (M[r] - M[r, col] * M[row]) % ell
        pivots.append(col)
    return pivots


def nullspace_mod(a: np.ndarray, ell: int) -> np.ndarray:
    """Basis of the right kernel as columns of an (n x k) array."""
    n = a.shape[1]
    M = a.copy().astype(np.int64) % ell
    pivots = _row_reduce(M, n, ell)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(pivots):
            basis[pc, j] = (-M[r, fc]) % ell
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
        piv = None
        for r in range(j + 1, n):
            if H[r, j]:
                piv = r
                break
        if piv is None:
            continue
        if piv != j + 1:
            H[[j + 1, piv]] = H[[piv, j + 1]]
            H[:, [j + 1, piv]] = H[:, [piv, j + 1]]
        ipiv = inv_mod(int(H[j + 1, j]), ell)
        for r in range(j + 2, n):
            if H[r, j]:
                f = H[r, j] * ipiv % ell
                H[r] = (H[r] - f * H[j + 1]) % ell
                H[:, j + 1] = (H[:, j + 1] + f * H[:, r]) % ell

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


def poly_trim(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    nz = np.nonzero(a)[0]
    return a[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=np.int64)


def poly_deg(a: np.ndarray) -> int:
    a = poly_trim(a)
    return len(a) - 1 if np.any(a) else -1


def poly_mul(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    if ell * ell * max(len(a), len(b)) >= 2**63:
        raise ValueError("modulus too large for int64 convolution")
    return poly_trim(np.convolve(a % ell, b % ell) % ell)


def poly_divmod(a: np.ndarray, b: np.ndarray, ell: int) -> tuple[np.ndarray, np.ndarray]:
    a = poly_trim(a % ell).copy()
    b = poly_trim(b % ell)
    db, da = poly_deg(b), poly_deg(a)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if da < db:
        return np.zeros(1, dtype=np.int64), a
    binv = inv_mod(int(b[db]), ell)
    q = np.zeros(da - db + 1, dtype=np.int64)
    r = a
    for d in range(da, db - 1, -1):
        c = r[d] * binv % ell
        if c:
            q[d - db] = c
            r[d - db : d + 1] = (r[d - db : d + 1] - c * b) % ell
    return poly_trim(q), poly_trim(r)


def poly_gcd(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    a, b = poly_trim(a % ell), poly_trim(b % ell)
    while np.any(b):
        a, b = b, poly_divmod(a, b, ell)[1]
    d = poly_deg(a)
    if d >= 0 and a[d] != 1:
        a = a * inv_mod(int(a[d]), ell) % ell
    return poly_trim(a)


def poly_pow_mod(base: np.ndarray, e: int, mod: np.ndarray, ell: int) -> np.ndarray:
    result = np.array([1], dtype=np.int64)
    cur = poly_divmod(np.asarray(base, dtype=np.int64), mod, ell)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, cur, ell), mod, ell)[1]
        cur = poly_divmod(poly_mul(cur, cur, ell), mod, ell)[1]
        e >>= 1
    return result


def roots_mod(f: np.ndarray, ell: int) -> list[int]:
    """Distinct roots of f in F_ell, ell an odd prime, sorted ascending:
    gcd(f, x^ell - x), split by Cantor-Zassenhaus with shifts x + 0, 1, ..."""
    if ell == 2:
        raise ValueError("roots_mod needs an odd prime")
    f = poly_trim(np.asarray(f, dtype=np.int64) % ell)
    if poly_deg(f) < 1:
        return []
    x_poly = np.array([0, 1], dtype=np.int64)
    xq = poly_pow_mod(x_poly, ell, f, ell)
    diff = xq.copy()
    if len(diff) < 2:
        diff = np.concatenate([diff, np.zeros(2 - len(diff), dtype=np.int64)])
    diff[1] = (diff[1] - 1) % ell
    g = poly_gcd(diff, f, ell)
    roots: list[int] = []
    stack = [g]
    shift = 0
    while stack:
        h = poly_trim(stack.pop())
        d = poly_deg(h)
        if d <= 0:
            continue
        if d == 1:
            roots.append((-int(h[0]) * inv_mod(int(h[1]), ell)) % ell)
            continue
        while True:
            a = shift
            shift += 1
            w = poly_pow_mod(np.array([a, 1], dtype=np.int64), (ell - 1) // 2, h, ell)
            w = w.copy()
            w[0] = (w[0] - 1) % ell
            d1 = poly_gcd(w, h, ell)
            if 0 < poly_deg(d1) < d:
                stack.append(d1)
                stack.append(poly_divmod(h, d1, ell)[0])
                break
    return sorted(roots)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


def sqrt_mod(a: int, ell: int) -> int:
    """A square root of a mod ell (Tonelli-Shanks); ValueError if a is not a QR."""
    a %= ell
    if a == 0:
        return 0
    if ell == 2:
        return a
    if pow(a, (ell - 1) // 2, ell) != 1:
        raise ValueError("not a quadratic residue")
    if ell % 4 == 3:
        return pow(a, (ell + 1) // 4, ell)
    q, s = ell - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (ell - 1) // 2, ell) != ell - 1:
        z += 1
    m, c, t, r = s, pow(z, q, ell), pow(a, q, ell), pow(a, (q + 1) // 2, ell)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % ell
            i += 1
        b = pow(c, 1 << (m - i - 1), ell)
        m, c = i, b * b % ell
        t, r = t * c % ell, r * b % ell
    return r


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
