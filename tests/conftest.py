"""Shared fixtures: the benchmark groups and their explicit irreducibles.

Everything heavyweight is session-scoped so the acceptance module and the
unit modules share one enumeration.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from signedwalk.elements import Element, MulTable, _byte_width
from signedwalk.errors import NotInGroup, NotInvertible
from signedwalk.groups import (
    ConjugacyClasses,
    FiniteGroup,
    close_generators,
    group_from_spec,
    matrix_element,
    permutation,
    table_element,
)
from signedwalk.irreps import decompose_regular
from signedwalk.modarith import charpoly_mod, matmul_mod, nullspace_mod, roots_mod, solve_in_span
from signedwalk.walk import _MC_BATCH, ExactDistribution, SignedSequence

from group_specs import BENCH, SL2_49, SL2_49_SEED11, sl2

BENCH_NAMES = list(BENCH)

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench_groups() -> dict[str, FiniteGroup]:
    return {name: group_from_spec(BENCH[name]) for name in BENCH_NAMES}


@pytest.fixture(scope="session")
def bench_irreps(bench_groups):
    return {name: decompose_regular(G, seed=2024) for name, G in bench_groups.items()}


@pytest.fixture(scope="session")
def sl2_49():
    return group_from_spec(SL2_49)


@pytest.fixture(scope="session")
def sl2_49_seed11():
    return group_from_spec(SL2_49_SEED11)


@pytest.fixture(scope="session")
def trivial():
    return close_generators([permutation(range(3))])


@pytest.fixture(scope="session")
def d6_reflections():
    """D6 from two reflections of the hexagon: each multiplier is its own inverse."""
    return close_generators(
        [permutation((0, 5, 4, 3, 2, 1)), permutation((1, 0, 5, 4, 3, 2))]
    )


# groups on which the class and class-matrix gathers are checked against the
# naive loops: every variant, with and without a dense table, a trivial group
# and self-inverse generators
CLASS_CASES = [
    "s3", "q8", "s4", "sl2_5", "sl2_7", "z6", "s7", "trivial", "d6_reflections", "sl2_49_seed11"
]


@pytest.fixture(scope="session")
def class_case(request, bench_groups):
    """name -> (group, classes from the naive BFS), each computed once."""
    cache = {}

    def get(name):
        if name not in cache:
            G = bench_groups[name] if name in bench_groups else request.getfixturevalue(name)
            cache[name] = (G, naive_conjugacy_classes(G))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def sl2_7():
    return group_from_spec(sl2(7))


@pytest.fixture(scope="session")
def z6():
    """Z/6 as a table group generated by 1."""
    table = MulTable([[(i + j) % 6 for j in range(6)] for i in range(6)])
    return close_generators([table_element(table, 1)])


# two non-associative 5-element loops (latin squares with identity 0), each
# with the generators that drove `closure` astray before tables were checked:
# on L1 from [4] the layers never close; on L2 from [2, 4] it closed at order 5
LOOP_GENERATORS = {
    "L1": ([[0, 1, 2, 3, 4], [1, 2, 4, 0, 3], [2, 3, 0, 4, 1], [3, 4, 1, 2, 0], [4, 0, 3, 1, 2]], [4]),
    "L2": ([[0, 1, 2, 3, 4], [1, 3, 4, 2, 0], [2, 0, 1, 4, 3], [3, 4, 0, 1, 2], [4, 2, 3, 0, 1]], [2, 4]),
}


@pytest.fixture(scope="session")
def s7():
    """S7 (|G| = 5040) from (0 1) and (0 1 2 3 4 5 6)."""
    return close_generators(
        [permutation((1, 0, 2, 3, 4, 5, 6)), permutation((1, 2, 3, 4, 5, 6, 0))]
    )


@pytest.fixture(scope="session")
def s6():
    """S6 from the transposition (0 1) and the 6-cycle (0 1 2 3 4 5), both
    relabelled by i -> [3, 1, 4, 5, 2, 0][i] (the benchmark's seed-11 input)."""
    return close_generators(
        [permutation((0, 3, 2, 1, 4, 5)), permutation((3, 4, 0, 1, 5, 2))]
    )


# ---------------------------------------------------------------------------
# reference arithmetic on single elements, independent of `RowArith`
# ---------------------------------------------------------------------------


def ref_inv_entries(entries: tuple[int, ...], m: int, p: int) -> tuple[int, ...]:
    """Inverse mod p by Gauss-Jordan elimination on [A | I]; NotInvertible if singular."""
    rows = [
        list(entries[i * m : (i + 1) * m]) + [int(i == j) for j in range(m)]
        for i in range(m)
    ]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] % p), None)
        if pivot is None:
            raise NotInvertible("matrix is singular mod p")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[col])]
    return tuple(rows[i][m + j] for i in range(m) for j in range(m))


def ref_mul(a: Element, b: Element) -> Element:
    """a * b: the matrix product mod p, the composition x -> a(b(x)), or the
    table entry."""
    if a.family != b.family:
        raise NotInGroup("reference product across families")
    kind = a.family[0]
    if kind == "matrix":
        _, p, m = a.family
        x, y = a.values, b.values
        values = tuple(
            sum(x[i * m + k] * y[k * m + j] for k in range(m)) % p
            for i in range(m)
            for j in range(m)
        )
    elif kind == "perm":
        values = tuple(a.values[i] for i in b.values)
    else:
        values = (int(a.table.products[a.values[0], b.values[0]]),)
    return Element(a.family, values, a.table)


def ref_identity(g: Element) -> Element:
    """The identity of g's family."""
    kind, n = g.family[0], len(g.values)
    if kind == "matrix":
        m = g.family[2]
        values = tuple(int(i == j) for i in range(m) for j in range(m))
    else:
        values = tuple(range(n)) if kind == "perm" else (g.table.identity_index,)
    return Element(g.family, values, g.table)


def ref_inv(g: Element) -> Element:
    """g^-1: `ref_inv_entries`, the inverted image list, or the table entry whose
    product with g is the identity."""
    kind = g.family[0]
    if kind == "matrix":
        _, p, m = g.family
        values = ref_inv_entries(g.values, m, p)
    elif kind == "perm":
        out = [0] * len(g.values)
        for i, img in enumerate(g.values):
            out[img] = i
        values = tuple(out)
    else:
        row = g.table.products[g.values[0]].tolist()
        values = (row.index(g.table.identity_index),)
    return Element(g.family, values, g.table)


def ref_order(g: Element) -> int:
    """Smallest k >= 1 with g^k = identity, by repeated `ref_mul`."""
    k, cur, ident = 1, g, ref_identity(g)
    while cur != ident:
        cur, k = ref_mul(cur, g), k + 1
    return k


def ref_encode(g: Element) -> bytes:
    """Canonical bytes: matrix entries or images big-endian, each in the bytes of
    the family's largest value (p - 1 or degree - 1), a table index in 4 bytes."""
    kind = g.family[0]
    if kind == "table":
        return g.values[0].to_bytes(4, "big")
    w = _byte_width(g.family[1] - 1)
    return b"".join(v.to_bytes(w, "big") for v in g.values)


def matrix_identity(p: int, m: int) -> Element:
    return matrix_element(p, m, (int(i == j) for i in range(m) for j in range(m)))


def matrix_rows(g: Element) -> list[list[int]]:
    """The rows of a matrix element."""
    m = g.family[2]
    return [list(g.values[i * m : (i + 1) * m]) for i in range(m)]


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately naive)
# ---------------------------------------------------------------------------


def brute_force_distribution(G: FiniteGroup, seq: SignedSequence) -> list[int]:
    """Enumerate all 2^n sign vectors by direct element multiplication."""
    idxs = [G.index_of(e) for e in seq.elements]
    counts = [0] * G.order
    for signs in itertools.product((0, 1), repeat=seq.n):
        cur = 0
        for s, a in zip(signs, idxs):
            cur = G.mul(cur, a if s else G.inv(a))
        counts[cur] += 1
    return counts


def naive_exact_counts(G: FiniteGroup, seq: SignedSequence) -> list[int]:
    """Step-by-step Python-int convolution: the mass at g moves to g*a and g*a^{-1}."""
    cur = [0] * G.order
    cur[0] = 1
    for a in (G.index_of(e) for e in seq.elements):
        ainv = G.inv(a)
        nxt = [0] * G.order
        for g, c in enumerate(cur):
            if c:
                nxt[G.mul(g, a)] += c
                nxt[G.mul(g, ainv)] += c
        cur = nxt
    return cur


def naive_dense_table(G: FiniteGroup) -> np.ndarray:
    """The per-column build: table[:, j] = mul_many(all, j), so every column goes
    through the variant's own product and lookup."""
    idxs = np.arange(G.order)
    table = np.empty((G.order, G.order), dtype=np.int32)
    for j in range(G.order):
        table[:, j] = G.mul_many(idxs, j)
    return table


def distribution_json(dist: ExactDistribution, G: FiniteGroup) -> dict:
    """The law dump as one dict: denom_exp and one entry per support element,
    each element's text its reference encoding in hex."""
    return {
        "denom_exp": dist.denom_exp,
        "entries": [
            {"element": ref_encode(G.element(i)).hex(), "count": str(dist.counts[i])}
            for i in dist.support()
        ],
    }


def naive_det_mod(entries: tuple[int, ...], m: int, p: int) -> int:
    """Determinant mod p of a row-major m x m matrix, by forward elimination."""
    rows = [list(entries[i * m : (i + 1) * m]) for i in range(m)]
    det = 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det % p
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for r in range(col + 1, m):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[col])]
    return det % p


def naive_batch_inverse(mats: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of a stack of m x m matrices: adjugate over recursive
    cofactor determinants for m <= 4, per-element elimination above."""
    m = mats.shape[1]
    a = mats.astype(np.int64)
    res_inv = np.array([0] + [pow(r, -1, p) for r in range(1, p)], dtype=np.int64)

    def det_stack(b: np.ndarray) -> np.ndarray:
        k = b.shape[1]
        if k == 1:
            return b[:, 0, 0] % p
        if k == 2:
            return (b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]) % p
        acc = np.zeros(b.shape[0], dtype=np.int64)
        for j in range(k):
            minor = np.delete(np.delete(b, 0, axis=1), j, axis=2)
            term = b[:, 0, j] * det_stack(minor) % p
            acc = (acc - term) % p if j % 2 else (acc + term) % p
        return acc % p

    if m > 4:
        out = np.empty_like(a)
        for idx in range(a.shape[0]):
            ent = tuple(int(x) for x in a[idx].reshape(-1))
            out[idx] = np.array(ref_inv_entries(ent, m, p), dtype=np.int64).reshape(m, m)
        return out
    dets = det_stack(a)
    if np.any(dets == 0):
        raise NotInGroup("singular matrix encountered")
    adj = np.empty_like(a)
    for i in range(m):
        for j in range(m):
            minor = np.delete(np.delete(a, i, axis=1), j, axis=2)
            cof = det_stack(minor) if m > 1 else np.ones(a.shape[0], dtype=np.int64)
            if (i + j) % 2:
                cof = (-cof) % p
            adj[:, j, i] = cof
    return adj * res_inv[dets][:, None, None] % p


def _mat_codes(mats: np.ndarray, p: int) -> np.ndarray:
    """Base-p integer codes of a stack of matrices, first entry most significant."""
    flat = mats.reshape(mats.shape[0], -1).astype(np.int64)
    k = flat.shape[1]
    return flat @ (p ** np.arange(k - 1, -1, -1, dtype=np.int64))


def naive_close_matrix(gens: list[Element]) -> tuple[np.ndarray, np.ndarray]:
    """(matrices in index order, inverse indices) from a BFS that materializes every
    product of a layer, tests membership in a Python set of codes, and inverts all
    elements after closure."""
    _, p, m = gens[0].family
    mult_mats, seen = [], set()
    for g in gens + [ref_inv(g) for g in gens]:
        arr = np.array(matrix_rows(g), dtype=np.int64)
        code = int(_mat_codes(arr[None, :, :], p)[0])
        if code not in seen:
            seen.add(code)
            mult_mats.append(arr)
    ident = np.eye(m, dtype=np.int64)[None, :, :]
    levels, frontier = [ident], ident
    known = {int(_mat_codes(ident, p)[0])}
    while frontier.shape[0]:
        prods = np.concatenate([np.matmul(frontier, t) % p for t in mult_mats], axis=0)
        uniq, first = np.unique(_mat_codes(prods, p), return_index=True)
        mask = np.array([int(c) not in known for c in uniq], dtype=bool)
        frontier = prods[first[mask]]
        known.update(int(c) for c in uniq[mask])
        if frontier.shape[0]:
            levels.append(frontier)
    mats = np.concatenate(levels, axis=0)
    codes = _mat_codes(mats, p)
    perm = np.argsort(codes)
    inv_codes = _mat_codes(naive_batch_inverse(mats, p), p)
    return mats, perm[np.searchsorted(codes[perm], inv_codes)]


def naive_close_generic(gens) -> tuple[list, np.ndarray]:
    """(elements in index order, inverse indices) from a BFS over single elements:
    a dict of canonical encodings holds every element found so far, each layer's
    new elements are sorted by encoding, and every inverse is looked up by
    encoding after closure.  Works for any element family, through the
    reference arithmetic."""
    ident = ref_identity(gens[0])
    elements = [ident]
    index = {ref_encode(ident): 0}
    multipliers = list({ref_encode(g): g for g in gens + [ref_inv(g) for g in gens]}.values())
    frontier = [ident]
    while frontier:
        discovered = {}
        for g in frontier:
            for t in multipliers:
                h = ref_mul(g, t)
                k = ref_encode(h)
                if k not in index and k not in discovered:
                    discovered[k] = h
        frontier = [discovered[k] for k in sorted(discovered)]
        for h in frontier:
            index[ref_encode(h)] = len(elements)
            elements.append(h)
    return elements, np.array([index[ref_encode(ref_inv(e))] for e in elements], dtype=np.int64)


def element_rows(elements) -> np.ndarray:
    """Matrix entries, permutation images or the table index, one row per element."""
    return np.array([e.values for e in elements], dtype=np.int64)


def group_rows(G: FiniteGroup) -> np.ndarray:
    """Every element's entries (as in `element_rows`), in index order, decoded
    from the group's keys."""
    return G._arith.entries(G._arith.decode(G._keys))


def decode_matrix(data: bytes, p: int, m: int) -> Element:
    """The matrix mod p whose `ref_encode` is data: m*m big-endian entries."""
    w = _byte_width(p - 1)
    if len(data) != w * m * m:
        raise ValueError("encoded length does not match matrix parameters")
    return matrix_element(
        p, m, tuple(int.from_bytes(data[i * w : (i + 1) * w], "big") for i in range(m * m))
    )


def decode_permutation(data: bytes, degree: int) -> Element:
    """The permutation whose `ref_encode` is data: `degree` big-endian images."""
    w = _byte_width(degree - 1) if degree > 1 else 1
    return permutation(
        tuple(int.from_bytes(data[i * w : (i + 1) * w], "big") for i in range(degree))
    )


def decode_table(data: bytes, table: MulTable) -> Element:
    """The table element whose `ref_encode` is data: one 4-byte big-endian index."""
    return table_element(table, int.from_bytes(data, "big"))


def naive_conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    """Orbits under conjugation by the generators and their inverses, one BFS per
    class, each step conjugating the frontier through two `mul_many` calls."""
    n = G.order
    class_of = np.full(n, -1, dtype=np.int64)
    gens = G.generator_indices
    conjugators = list(dict.fromkeys(list(gens) + [G.inv(t) for t in gens]))
    reps: list[int] = []
    sizes: list[int] = []
    for start in range(n):
        if class_of[start] >= 0:
            continue
        cid = len(reps)
        reps.append(start)
        class_of[start] = cid
        frontier = np.array([start], dtype=np.int64)
        size = 1
        while frontier.size:
            new_parts = []
            for t in conjugators:
                c = G.mul_many(G.mul_many(np.full(len(frontier), t), frontier), G.inv(t))
                fresh = np.unique(c[class_of[c] < 0])
                class_of[fresh] = cid
                new_parts.append(fresh)
            frontier = np.unique(np.concatenate(new_parts))
            size += frontier.size
        sizes.append(size)
    return ConjugacyClasses(class_of, tuple(reps), tuple(sizes))


def naive_class_matrix(G: FiniteGroup, cc: ConjugacyClasses, i: int, ell: int) -> np.ndarray:
    """M[k, j] = #{x in C_i : x^-1 z_k in C_j} mod ell, one `mul_many` per class
    representative z_k over the inverses of every member of C_i."""
    r = cc.count
    xinv = np.array([G.inv(int(x)) for x in np.nonzero(cc.class_of == i)[0]], dtype=np.int64)
    M = np.zeros((r, r), dtype=np.int64)
    for k, zk in enumerate(cc.representatives):
        M[k] = np.bincount(cc.class_of[G.mul_many(xinv, zk)], minlength=r)
    return M % ell


def naive_multiplicities(table, i: int, c: int) -> tuple[int, ...]:
    """Multiplicity of eps^j (eps = exp(2 pi i / k), k the order of the class
    representative g) as an eigenvalue of Phi_i(g), by the cyclic-subgroup
    projection m_j = (1/k) sum_u chi_i(g^u) eps^{-ju} on the float character
    values, rounded after checking that it is within 1e-6 of an integer."""
    k = table.class_orders[c]
    chi_pow = table.values[i, table.power_classes(c)]
    j_u = np.outer(np.arange(k), np.arange(k))
    raw = np.exp(-2j * np.pi * j_u / k) @ chi_pow / k
    assert np.max(np.abs(raw.imag)) <= 1e-6
    assert np.max(np.abs(raw.real - np.round(raw.real))) <= 1e-6
    return tuple(int(x) for x in np.round(raw.real))


def naive_element_order(G: FiniteGroup, i: int) -> int:
    """Smallest k >= 1 with g_i^k = identity, by a scalar `G.mul` power walk."""
    k, cur = 1, i
    while cur != 0:
        cur = G.mul(cur, i)
        k += 1
    return k


def brute_force_roots(f, ell: int) -> list[int]:
    """Roots of f in F_ell, by Horner evaluation at every residue."""
    coeffs = [int(c) for c in reversed(f)]

    def value(x: int) -> int:
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % ell
        return acc

    return [x for x in range(ell) if value(x) == 0]


def naive_class_powers(G: FiniteGroup, cc: ConjugacyClasses):
    """(orders, central orders, power classes per class) from scalar `G.mul` loops:
    `naive_element_order`, the power-class loop and the central-order while-loop."""
    singleton = [size == 1 for size in cc.sizes]
    orders, central, powers = [], [], []
    for g in cc.representatives:
        k = naive_element_order(G, g)
        out, cur = [0], g
        for _ in range(k - 1):
            out.append(int(cc.class_of[cur]))
            cur = G.mul(cur, g)
        cur, u = g, 1
        while not singleton[int(cc.class_of[cur])]:
            cur = G.mul(cur, g)
            u += 1
        orders.append(k)
        central.append(u)
        powers.append(out)
    return tuple(orders), tuple(central), powers


def left_translation_rows(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """(rows[x, h] = index of x h, inv_rows[a, b] = index of a^{-1} b)."""
    idxs = np.arange(G.order)
    rows = np.array([G.mul_many(np.full(G.order, g), idxs) for g in idxs], dtype=np.int64)
    return rows, rows[[G.inv(g) for g in range(G.order)]]


def naive_average_hermitian(H: np.ndarray, left_inv_rows: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_g R(g) H R(g)^* as |G| row/column gathers of H, O(|G|^3)."""
    n = H.shape[0]
    acc = np.zeros_like(H)
    for g in range(n):
        pi = left_inv_rows[g]
        acc += H[np.ix_(pi, pi)]
    return acc / n


def naive_tabulate(V: np.ndarray, left_inv_rows: np.ndarray) -> np.ndarray:
    """rho(g) = V^* R(g) V for every g, one row gather of V per element:
    (R(g) V)[a] = V[g^{-1} a]."""
    Vh = V.conj().T
    return np.array([Vh @ V[left_inv_rows[g]] for g in range(len(V))])


def naive_row_reduce(M: np.ndarray, ncols: int, ell: int) -> list[int]:
    """Gauss-Jordan elimination of M (reduced mod ell) in place over its first
    ncols columns, clearing each pivot column one row at a time; returns the
    pivot columns, pivot r sitting in row r."""
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
        M[row] = M[row] * pow(int(M[row, col]), -1, ell) % ell
        for r in range(m):
            if r != row and M[r, col]:
                M[r] = (M[r] - M[r, col] * M[row]) % ell
        pivots.append(col)
    return pivots


def naive_nullspace(a: np.ndarray, ell: int) -> np.ndarray:
    """Right-kernel basis (n x k) read off `naive_row_reduce`, one free column at
    a time: 1 at the free column, minus the reduced entries at the pivots."""
    n = a.shape[1]
    M = a.astype(np.int64) % ell
    pivots = naive_row_reduce(M, n, ell)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(pivots):
            basis[pc, j] = (-M[r, fc]) % ell
    return basis


def naive_solve_in_span(W: np.ndarray, X: np.ndarray, ell: int) -> np.ndarray:
    """A with W @ A = X (mod ell), from `naive_row_reduce` on [W | X]."""
    d = W.shape[1]
    aug = np.concatenate([W, X], axis=1).astype(np.int64) % ell
    if len(naive_row_reduce(aug, d, ell)) < d:
        raise ValueError("basis matrix is column-rank deficient")
    if np.any(aug[d:, d:]):
        raise ValueError("right-hand side leaves the span")
    return aug[:d, d:]


def naive_eigenlines(G: FiniteGroup, cc: ConjugacyClasses, ell: int, order=None):
    """(common eigenlines of the class-sum operators mod ell, number of times an
    operator was scalar on a space): Dixon's splitting loop, class operators from
    `naive_class_matrix` taken in `order` (by default class by class, as
    `_eigenlines` takes them), with every space of dimension > 1 split through
    its characteristic polynomial, the roots and one kernel per root, scalar or
    not."""
    spaces, scalar = [np.eye(cc.count, dtype=np.int64)], 0
    for i in range(1, cc.count) if order is None else order:
        if all(W.shape[1] == 1 for W in spaces):
            break
        M = naive_class_matrix(G, cc, i, ell)
        refined = []
        for W in spaces:
            if W.shape[1] == 1:
                refined.append(W)
                continue
            A = solve_in_span(W, matmul_mod(M, W, ell), ell)
            scalar += int(np.array_equal(A, A[0, 0] * np.eye(len(A), dtype=np.int64)))
            for lam in roots_mod(charpoly_mod(A, ell), ell):
                K = nullspace_mod((A - lam * np.eye(len(A), dtype=np.int64)) % ell, ell)
                refined.append(matmul_mod(W, K, ell))
        spaces = refined
    return spaces, scalar


def pascal_central_binomial(n: int) -> int:
    """C(n, floor(n/2)) from an explicit Pascal triangle."""
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[n // 2]


def naive_signed_sum_counts(a_list) -> dict[int, int]:
    """Plain dict DP for the law of sum +-a_i."""
    counts = {0: 1}
    for a in a_list:
        nxt: dict[int, int] = {}
        for v, c in counts.items():
            nxt[v + a] = nxt.get(v + a, 0) + c
            nxt[v - a] = nxt.get(v - a, 0) + c
        counts = nxt
    return counts


def naive_mc(seq: SignedSequence, samples: int, seed: int) -> tuple[int, int, str]:
    """(max count, distinct products, hex encoding of the modal product) of the
    Monte-Carlo estimator, replayed element by element: batch b draws the same
    Philox sign bits as `rho_monte_carlo`, each sample multiplies A_i or A_i^-1
    left to right with `ref_mul` (each distinct (product, factor) pair is
    multiplied once), and products are counted by `ref_encode`."""
    inverses = [ref_inv(e) for e in seq.elements]
    ident = ref_identity(seq.elements[0])
    counts: dict[bytes, int] = {}
    step: dict = {}
    for b in range(-(-samples // _MC_BATCH)):
        size = min(_MC_BATCH, samples - b * _MC_BATCH)
        gen = np.random.Generator(np.random.Philox(key=seed % 2**64, counter=[0, 0, 0, b]))
        for signs in gen.integers(0, 2, size=(size, seq.n), dtype=np.uint8).tolist():
            cur = ident
            for s, a, a_inv in zip(signs, seq.elements, inverses):
                f = a if s else a_inv
                cur = step.get((cur, f)) or step.setdefault((cur, f), ref_mul(cur, f))
            key = ref_encode(cur)
            counts[key] = counts.get(key, 0) + 1
    best = max(counts.values())
    return best, len(counts), min(k for k, c in counts.items() if c == best).hex()


def random_sequence(G: FiniteGroup, n: int, rng: np.random.Generator) -> SignedSequence:
    return SignedSequence(tuple(G.element(int(rng.integers(1, G.order))) for _ in range(n)))
