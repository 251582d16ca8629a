"""Explicit unitary irreducibles by splitting the regular representation.

A random Hermitian matrix averaged over the left-translation action lands in
the commutant of the regular representation; for a generic draw its
eigenspaces are exactly the irreducible invariant subspaces (each isotypic
block of dimension d contributes d eigenvalues of multiplicity d).  Restricting
the translation action to an eigenspace with an orthonormal basis gives a
unitary representation; a character self-inner-product of 1 certifies
irreducibility, anything larger is split again recursively.

The average needs no sum over the group.  It commutes with every left
translation, so `Ht[a, b] = f(a^{-1} b)` with `f(h) = mean_x H[x, x h]`: one
gather of H through the multiplication table, one mean, and one gather of f,
O(|G|^2) in all.  On an invariant subspace with orthonormal basis V, the
restricted action rho(g) = V^* R(g) V averages the same way, as
V^* avg(V K V^*) V.  Each irreducible is tabulated in chunks of |G| // d
elements, one matmul per chunk, so no temporary exceeds |G|^2 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImagTooLarge, IncompleteIrreps, SizeCap, SplitFailure
from .groups import FiniteGroup, conjugacy_classes
from .walk import SignedSequence

REGULAR_SIZE_CAP = 2048
_MAX_RETRIES = 8
_CLUSTER_GAP = 1e-8
_INTEGRALITY_TOL = 1e-6  # character inner products must lie this close to integers
_IMAG_TOL = 1e-9  # largest imaginary part a Fourier-inverted probability may keep


@dataclass
class UnitaryIrrep:
    """One irreducible unitary representation tabulated on every group element."""

    dim: int
    matrices: np.ndarray  # (|G|, d, d) complex128, indexed by element index
    character: np.ndarray  # (|G|,) complex128

    def __post_init__(self) -> None:
        if self.matrices.shape[1] != self.dim or self.matrices.shape[2] != self.dim:
            raise ValueError("matrix block size does not match dim")


def _average_hermitian(
    H: np.ndarray, left_rows: np.ndarray, left_inv_rows: np.ndarray
) -> np.ndarray:
    """(1/|G|) sum_g R(g) H R(g)^*, i.e. Ht[a, b] = mean_g H[g^{-1} a, g^{-1} b].

    Substituting x = g^{-1} a gives Ht[a, b] = f(a^{-1} b), f(h) = mean_x H[x, x h];
    left_rows[x, h] is the index of x h and left_inv_rows[a, b] that of a^{-1} b.
    """
    n = H.shape[0]
    f = H[np.arange(n)[:, None], left_rows].mean(axis=0)
    return f[left_inv_rows]


def _restricted_average(
    V: np.ndarray, K: np.ndarray, left_rows: np.ndarray, left_inv_rows: np.ndarray
) -> np.ndarray:
    """(1/|G|) sum_g rho(g) K rho(g)^* for rho(g) = V^* R(g) V on an invariant span(V)."""
    Vh = V.conj().T
    return Vh @ _average_hermitian(V @ K @ Vh, left_rows, left_inv_rows) @ V


def _tabulate(V: np.ndarray, left_inv_rows: np.ndarray) -> np.ndarray:
    """rho(g) = V^* R(g) V for every g, |G| // d elements per matmul."""
    n, d = V.shape
    Vh = V.conj().T
    mats = np.empty((n, d, d), dtype=np.complex128)
    step = max(1, n // d)
    for start in range(0, n, step):
        mats[start : start + step] = np.matmul(Vh, V[left_inv_rows[start : start + step]])
    return mats


def _char_inner(a: np.ndarray, b: np.ndarray, sizes: np.ndarray, order: int) -> complex:
    return np.sum(sizes * a * b.conj()) / order


def decompose_regular(G: FiniteGroup, seed: int = 2024) -> list[UnitaryIrrep]:
    """One unitary irreducible per isomorphism class, with full element tables.

    Deterministic for a fixed seed.  Degenerate random draws (merged
    eigenvalue clusters that refuse to split) are retried with derived seeds,
    at most 8 times, then SplitFailure.  `_INTEGRALITY_TOL` gates how close the
    character inner products must sit to integers; anything farther means the
    numerics broke, not that the answer is ambiguous.
    """
    n = G.order
    if n > REGULAR_SIZE_CAP:
        raise SizeCap(f"|G| = {n} exceeds the explicit-representation cap {REGULAR_SIZE_CAP}")
    cc = conjugacy_classes(G)
    sizes = np.array(cc.sizes, dtype=np.float64)
    left_rows = G.dense_table()
    left_inv_rows = left_rows[G._inv]

    rng = np.random.default_rng(seed)

    def random_hermitian(d: int) -> np.ndarray:
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (X + X.conj().T) / 2.0

    def split(V: np.ndarray, depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split span(V) (orthonormal columns, invariant) into irreducible pieces,
        each with its character on the classes."""
        d = V.shape[1]
        chi = np.empty(cc.count, dtype=np.complex128)
        for k, rep in enumerate(cc.representatives):
            chi[k] = np.einsum("aj,aj->", V.conj(), V[left_inv_rows[rep]])
        norm = _char_inner(chi, chi, sizes, n)
        if abs(norm - round(norm.real)) > _INTEGRALITY_TOL:
            raise SplitFailure("character self-inner-product is not close to an integer")
        if round(norm.real) == 1:
            return [(V, chi)]
        if depth > 256:
            raise SplitFailure("splitting recursion exceeded depth budget")
        for attempt in range(_MAX_RETRIES):
            acc = _restricted_average(V, random_hermitian(d), left_rows, left_inv_rows)
            acc = (acc + acc.conj().T) / 2.0
            evals, evecs = np.linalg.eigh(acc)
            clusters = _cluster(evals)
            if len(clusters) > 1:
                out: list[tuple[np.ndarray, np.ndarray]] = []
                for sel in clusters:
                    out.extend(split(_orthonormal(V @ evecs[:, sel]), depth + 1))
                return out
        raise SplitFailure("no splitting draw succeeded within the retry budget")

    # first pass: average over the full regular representation
    for attempt in range(_MAX_RETRIES):
        Ht = _average_hermitian(random_hermitian(n), left_rows, left_inv_rows)
        Ht = (Ht + Ht.conj().T) / 2.0
        evals, evecs = np.linalg.eigh(Ht)
        clusters = _cluster(evals)
        try:
            blocks: list[tuple[np.ndarray, np.ndarray]] = []
            for sel in clusters:
                blocks.extend(split(_orthonormal(evecs[:, sel]), 0))
            break
        except SplitFailure:
            if attempt == _MAX_RETRIES - 1:
                raise
    # group blocks into isomorphism classes by character inner products
    chars = [chi for _, chi in blocks]
    reps_of_class: list[int] = []
    members_count: list[int] = []
    assigned = [-1] * len(blocks)
    for b, chi in enumerate(chars):
        for ci, r in enumerate(reps_of_class):
            ip = _char_inner(chi, chars[r], sizes, n)
            rounded = round(ip.real)
            if abs(ip - rounded) > _INTEGRALITY_TOL:
                raise SplitFailure("isomorphism-class inner product not close to an integer")
            if rounded == 1:
                assigned[b] = ci
                members_count[ci] += 1
                break
        if assigned[b] < 0:
            assigned[b] = len(reps_of_class)
            reps_of_class.append(b)
            members_count.append(1)

    irreps: list[UnitaryIrrep] = []
    for ci, b in enumerate(reps_of_class):
        V = blocks[b][0]
        d = V.shape[1]
        if members_count[ci] != d:
            raise SplitFailure(
                f"isotypic multiplicity {members_count[ci]} != dimension {d}"
            )
        mats = _tabulate(V, left_inv_rows)
        character = np.einsum("gii->g", mats)
        irreps.append(UnitaryIrrep(dim=d, matrices=mats, character=character))
    if sum(r.dim * r.dim for r in irreps) != n:
        raise SplitFailure("squared dimensions of the classes do not sum to |G|")
    irreps.sort(key=lambda r: (r.dim, tuple(np.round(r.character.real, 6))))
    _validate_unitary(irreps)
    return irreps


def _cluster(evals: np.ndarray) -> list[np.ndarray]:
    """Group sorted eigenvalues into clusters separated by gaps above the threshold."""
    order = np.argsort(evals)
    clusters: list[list[int]] = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if evals[cur] - evals[prev] > _CLUSTER_GAP:
            clusters.append([])
        clusters[-1].append(cur)
    return [np.array(c) for c in clusters]


def _orthonormal(V: np.ndarray) -> np.ndarray:
    Q, _ = np.linalg.qr(V)
    return Q


def _validate_unitary(irreps: list[UnitaryIrrep]) -> None:
    for rep in irreps:
        sample = rep.matrices[: min(len(rep.matrices), 64)]
        eye = np.eye(rep.dim)
        err = max(np.max(np.abs(m @ m.conj().T - eye)) for m in sample)
        if err > 1e-8:
            raise SplitFailure(f"representation block is not unitary (err {err:.2e})")


# ---------------------------------------------------------------------------
# the trace identity
# ---------------------------------------------------------------------------


def _check_complete(G: FiniteGroup, irreps) -> None:
    if sum(r.dim * r.dim for r in irreps) != G.order:
        raise IncompleteIrreps("squared dimensions do not sum to |G|")


def fourier_distribution(G: FiniteGroup, irreps, seq: SignedSequence) -> np.ndarray:
    """P(product = B) for every B at once, via the representation-side formula
    (1/|G|) sum_Phi dim(Phi) trace(prod_i (Phi(A_i)+Phi(A_i^{-1}))/2 * Phi(B^{-1}))."""
    _check_complete(G, irreps)
    idxs = [G.index_of(e) for e in seq.elements]
    acc = np.zeros(G.order, dtype=np.complex128)
    for rep in irreps:
        mats = rep.matrices
        prod = np.eye(rep.dim, dtype=np.complex128)
        for a in idxs:
            prod = prod @ ((mats[a] + mats[G.inv(a)]) / 2.0)
        acc += rep.dim * np.einsum("ij,gji->g", prod, mats[G._inv])
    acc /= G.order
    worst = float(np.max(np.abs(acc.imag)))
    if worst > _IMAG_TOL:
        raise ImagTooLarge(f"imaginary residue {worst:.2e} exceeds {_IMAG_TOL:.1e}")
    return acc.real
