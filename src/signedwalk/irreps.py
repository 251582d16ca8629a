"""Explicit unitary irreducibles by splitting the regular representation.

A real symmetric matrix H averaged over the left-translation action lands in
the commutant of the regular representation.  The average needs no sum over
the group: it commutes with every left translation, so `Ht[a, b] = f(a^{-1} b)`
with `f(h) = mean_x H[x, x h]`, one gather of H through the multiplication
table, one mean and one gather of f, O(|G|^2) in all.  As H is symmetric,
f(h) = f(h^{-1}), so Ht is real symmetric and the first pass is one float64
`eigh`.  On the d copies of an irreducible Phi of dimension d, Ht acts through
a d x d matrix A on the multiplicity space, generic among those the real
structure allows:

- Phi real (it has a real form): A is real symmetric with d distinct
  eigenvalues, and each eigenspace of Ht is one copy of Phi;
- Phi complex (not isomorphic to its conjugate): the block of conj(Phi) is
  conj(A), so each eigenvalue is shared by a copy of Phi and one of conj(Phi);
- Phi quaternionic: A commutes with an antiunitary J with J^2 = -1, so its
  eigenvalues come in equal pairs and each eigenspace holds two copies of Phi.

A character self-inner-product of 1 certifies an eigenspace irreducible.  A
larger one (the 2d-dimensional eigenspaces of the last two kinds, or a draw
that merged eigenvalues) is split again: for a random complex Hermitian K, the
mean of rho(g) K rho(g)^* over the group commutes with the restricted action
rho, and its eigenspaces separate the summands, recursively.

On an invariant subspace with orthonormal basis V, rho(g) = V^* R(g) V is
tabulated down the generator tree: one gather of V for each multiplier t, then
rho(h) = rho(parent[h]) rho(t) for a whole BFS layer in one batched matmul,
O(|G| d^3) per subspace (a gather per element would be O(|G|^2 d)).  Only the
spans that need splitting, and at the end one representative per isomorphism
class, are tabulated; the representatives of one dimension go together.  The
class characters of a first-pass eigenspace are one gather of V through the
class representatives' rows of the table; a piece V E of a split span takes
them from the span's table, as traces of E^* rho(rep) E.  The irreducible
pieces fall into isomorphism classes by one Gram matrix of their characters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImagTooLarge, IncompleteIrreps, SizeCap, SplitFailure
from .groups import FiniteGroup, GeneratorTree, conjugacy_classes
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


def _tabulate(V: np.ndarray, tree: GeneratorTree, left_inv_rows: np.ndarray) -> np.ndarray:
    """rho(g) = V^* R(g) V for every g, span(V) invariant with orthonormal
    columns: a gather of V for each multiplier, then rho(h) =
    rho(parent[h]) rho(mults[via[h]]) one BFS layer at a time.  V is (|G|, d),
    or a stack (b, |G|, d) of such bases, tabulated together as (b, |G|, d, d)."""
    n, d = V.shape[-2:]
    Vh = V.conj().swapaxes(-1, -2)
    at_mults = np.stack([Vh @ V.take(left_inv_rows[t], axis=-2) for t in tree.mults], axis=-3)
    mats = np.empty(V.shape[:-2] + (n, d, d), dtype=V.dtype)
    mats[..., 0, :, :] = np.eye(d)
    for lo, hi in zip(tree.starts[1:-1], tree.starts[2:]):
        mats[..., lo:hi, :, :] = mats.take(tree.parent[lo:hi], axis=-3) @ at_mults.take(
            tree.via[lo:hi], axis=-3
        )
    return mats


def _conjugation_mean(mats: np.ndarray, K: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_g mats[g] K mats[g]^*: in the commutant of a tabulated rho."""
    return np.mean(mats @ K @ mats.conj().swapaxes(1, 2), axis=0)


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
    left_inv_rows = G.dense_table()[G._inv]  # row g: R(g) as a gather
    reps = list(cc.representatives)

    rng = np.random.default_rng(seed)

    def random_hermitian(d: int) -> np.ndarray:
        X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (X + X.conj().T) / 2.0

    def split(V: np.ndarray, chi: np.ndarray, depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split span(V) (orthonormal columns, invariant, class character chi)
        into irreducible pieces, each with its character on the classes."""
        norm = sizes @ np.abs(chi) ** 2 / n
        if abs(norm - round(norm)) > _INTEGRALITY_TOL:
            raise SplitFailure("character self-inner-product is not close to an integer")
        if round(norm) == 1:
            return [(V, chi)]
        if depth > 256:
            raise SplitFailure("splitting recursion exceeded depth budget")
        mats = _tabulate(V, G.tree, left_inv_rows)
        at_reps_rho = mats[reps]
        for attempt in range(_MAX_RETRIES):
            evals, evecs = np.linalg.eigh(_conjugation_mean(mats, random_hermitian(V.shape[1])))
            clusters = _cluster(evals)
            if len(clusters) > 1:
                out: list[tuple[np.ndarray, np.ndarray]] = []
                for sel in clusters:
                    E = evecs[:, sel]  # span(V E) carries E^* rho E
                    piece = np.einsum("jm,kjl,lm->k", E.conj(), at_reps_rho, E)
                    out.extend(split(V @ E, piece, depth + 1))
                return out
        raise SplitFailure("no splitting draw succeeded within the retry budget")

    def first_pass() -> list[tuple[np.ndarray, np.ndarray]]:
        """Average a real symmetric draw over the full regular representation
        and split each eigenspace into irreducible pieces."""
        left_rows = left_inv_rows[G._inv]
        at_reps = left_inv_rows[reps]
        for attempt in range(_MAX_RETRIES):
            H = rng.standard_normal((n, n))
            H = _average_hermitian((H + H.T) / 2.0, left_rows, left_inv_rows)
            evals, evecs = np.linalg.eigh(H)  # eigh reads one triangle: no symmetrizing needed
            try:
                blocks: list[tuple[np.ndarray, np.ndarray]] = []
                for sel in _cluster(evals):
                    V = evecs[:, sel]  # real, so chi(rep) = sum_a V[a] . V[rep^-1 a]
                    chi = V.take(at_reps, axis=0).reshape(len(reps), -1) @ V.ravel()
                    blocks.extend(split(V, chi, 0))
                return blocks
            except SplitFailure:
                if attempt == _MAX_RETRIES - 1:
                    raise

    blocks = first_pass()
    first = _first_isomorphic(np.array([chi for _, chi in blocks]), sizes)
    members_count = np.bincount(first, minlength=len(blocks))

    heads = np.flatnonzero(first == np.arange(len(blocks)))
    dims = np.array([blocks[b][0].shape[1] for b in heads])
    for b, d in zip(heads, dims):
        if members_count[b] != d:
            raise SplitFailure(f"isotypic multiplicity {members_count[b]} != dimension {d}")
    irreps: list[UnitaryIrrep] = []
    for d in np.unique(dims):  # one tabulation for all classes of a dimension
        bases = np.stack([blocks[b][0] for b in heads[dims == d]])
        for mats in _tabulate(bases, G.tree, left_inv_rows).astype(np.complex128, copy=False):
            irreps.append(UnitaryIrrep(int(d), mats, np.einsum("gii->g", mats)))
    if sum(r.dim * r.dim for r in irreps) != n:
        raise SplitFailure("squared dimensions of the classes do not sum to |G|")
    irreps.sort(key=lambda r: (r.dim, tuple(np.round(r.character.real, 6))))
    _validate_unitary(irreps)
    return irreps


def _first_isomorphic(chars: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each irreducible character (a row of class values), the index of the
    first row with inner product 1 with it, from one Gram matrix."""
    gram = (chars * sizes) @ chars.conj().T / np.sum(sizes)
    rounded = np.round(gram.real)
    if np.max(np.abs(gram - rounded)) > _INTEGRALITY_TOL:
        raise SplitFailure("isomorphism-class inner product not close to an integer")
    return np.argmax(rounded == 1, axis=1)


def _cluster(evals: np.ndarray) -> list[np.ndarray]:
    """Group sorted eigenvalues into clusters separated by gaps above the threshold."""
    order = np.argsort(evals)
    clusters: list[list[int]] = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if evals[cur] - evals[prev] > _CLUSTER_GAP:
            clusters.append([])
        clusters[-1].append(cur)
    return [np.array(c) for c in clusters]


def _validate_unitary(irreps: list[UnitaryIrrep]) -> None:
    for rep in irreps:
        sample = rep.matrices[:64]
        err = np.max(np.abs(sample @ sample.conj().swapaxes(1, 2) - np.eye(rep.dim)))
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
