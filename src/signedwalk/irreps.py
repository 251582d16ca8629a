"""Explicit unitary irreducibles by splitting the regular representation.

A real matrix H averaged over the left-translation action lands in the
commutant of the regular representation R.  The average needs no sum over the
group: it commutes with every left translation, so `Ht[a, b] = f(a^{-1} b)`
with `f(h) = mean_x H[x, x h]`, O(|G|^2) in all.  It keeps H symmetric or
antisymmetric, and the halves (H + H^T)/2 and (H - H^T)/2 of one Gaussian draw
are independent.  One pass over the draw, a block of rows at a time through the
one multiplication table, gives both halves' functions as length-|G| vectors,
f_sym(h) and f_anti(h) = mean_x (H[x, x h] +- H[x h, x]) / 2; the draw is then
dropped, and a vector is spread into its |G| x |G| average only when needed.

The first pass is one float64 `eigh` of the symmetric half's average.  On the
d copies of an irreducible Phi of dimension d, it acts through a d x d matrix
A on the multiplicity space, generic among those the real structure allows:

- Phi real (it has a real form): A is real symmetric with d distinct
  eigenvalues, and each eigenspace is one copy of Phi;
- Phi complex (not isomorphic to its conjugate): the block of conj(Phi) is
  conj(A), so each eigenvalue is shared by a copy of Phi and one of conj(Phi);
- Phi quaternionic: A commutes with an antiunitary J with J^2 = -1, so its
  eigenvalues come in equal pairs and each eigenspace holds two copies of Phi.

A character self-inner-product of 1 certifies an eigenspace irreducible.  On
an eigenspace V of the last two kinds, the antisymmetric half's average K
gives V^T K V, real antisymmetric and commuting with the restricted action:
i b on Phi and -i b on conj(Phi), or an imaginary quaternion q on the two
copies of Phi (and 0 on a real-type eigenspace).  So the Hermitian i V^T K V
has the two eigenvalues -+b, or -+|q|, each on one copy of Phi.  K is spread
at most once per draw, only if an eigenspace is reducible, from f_anti and a
rebuilt table: no table is held across the `eigh`.  A draw whose pieces are
not all irreducible is replaced.

Characters need no representation matrices: the projection P onto an invariant
subspace commutes with R, so P[a, b] = p(a^{-1} b) for p = P[e], and chi(g) is
|G| / |class of g| times the sum of p over the class of g, O(|G| d).  The Gram
matrix of the pieces' characters, a block of rows at a time, sorts them into
isomorphism classes.  One representative per class is tabulated down the
generator tree, those of one dimension together: rho(t) = V^* R(t) V for each
multiplier t by one gather, then rho(h) = rho(parent[h]) rho(t) for a whole BFS
layer in one batched matmul, O(|G| d^3) per subspace (a gather per element
would be O(|G|^2 d)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapExceeded, ConsistencyFailure, SplitFailure
from .groups import FiniteGroup, conjugacy_classes

if TYPE_CHECKING:
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


def _row_blocks(n: int) -> list[slice]:
    """Slices of consecutive rows, about 2^16 entries of an n-column array each,
    so that a gather's index and value temporaries stay near a megabyte."""
    step = max(1, (1 << 16) // n)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _halves(H: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f_sym and f_anti, f(h) = mean_x (H[x, x h] +- H[x h, x]) / 2 with
    table[x, h] the index of x h: the functions whose spreads are the averages
    of the halves (H +- H^T) / 2.  One pass over H, a block of rows at a time.
    Each half is summed one row at a time in index order from zero, as
    `mean(axis=0)` of the whole gathered half sums, so the two agree bitwise."""
    n = H.shape[0]
    f_sym = np.zeros(n, dtype=H.dtype)
    f_anti = np.zeros(n, dtype=H.dtype)
    for rows in _row_blocks(n):
        x = np.arange(n)[rows, None]
        xh = table[rows].astype(np.intp)
        a, b = H[x, xh], H[xh, x]
        for f, half in ((f_sym, a + b), (f_anti, a - b)):
            half /= 2.0
            for row in half:
                f += row
    return f_sym / n, f_anti / n


def _spread(f: np.ndarray, table: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The average Ht[a, b] = f(a^{-1} b) = f[table[inv[a], b]], a block of rows at a time."""
    n = len(f)
    out = np.empty((n, n), dtype=f.dtype)
    for rows in _row_blocks(n):
        np.take(f, table[inv[rows]], out=out[rows])
    return out


def _tabulate(V: np.ndarray, G: FiniteGroup) -> np.ndarray:
    """rho(g) = V^* R(g) V for every g, span(V) invariant with orthonormal
    columns: a gather of V for each multiplier t, (R(t) V)[a] = V[t^{-1} a]
    with t^{-1} a = (a^{-1} t)^{-1} read off t's own column, then rho(h) =
    rho(parent[h]) rho(mults[via[h]]) one BFS layer at a time.  V is (|G|, d),
    or a stack (b, |G|, d) of such bases, tabulated together as (b, |G|, d, d)."""
    n, d = V.shape[-2:]
    tree, inv = G.tree, G._inv
    Vh = V.conj().swapaxes(-1, -2)
    at_mults = np.stack([Vh @ V.take(inv[col[inv]], axis=-2) for col in tree.cols], axis=-3)
    mats = np.empty(V.shape[:-2] + (n, d, d), dtype=V.dtype)
    mats[..., 0, :, :] = np.eye(d)
    for lo, hi in zip(tree.starts[1:-1], tree.starts[2:]):
        mats[..., lo:hi, :, :] = mats.take(tree.parent[lo:hi], axis=-3) @ at_mults.take(
            tree.via[lo:hi], axis=-3
        )
    return mats


def decompose_regular(G: FiniteGroup, seed: int = 2024) -> list[UnitaryIrrep]:
    """One unitary irreducible per isomorphism class, with full element tables.

    Deterministic for a fixed seed: every draw, retries included, comes from
    the one stream `default_rng(seed)`.  A draw whose pieces are not all
    irreducible (merged eigenvalue clusters) is replaced by the next, at most
    `_MAX_RETRIES` draws in all, then SplitFailure.  `_INTEGRALITY_TOL` gates
    how close the character inner products must sit to integers; anything
    farther means the numerics broke, not that the answer is ambiguous.
    """
    n = G.order
    if n > REGULAR_SIZE_CAP:
        raise CapExceeded(f"|G| = {n} exceeds the explicit-representation cap {REGULAR_SIZE_CAP}")
    cc = conjugacy_classes(G)
    sizes = np.array(cc.sizes, dtype=np.float64)
    by_class = np.argsort(cc.class_of, kind="stable")
    class_starts = np.cumsum(cc.sizes) - cc.sizes
    rng = np.random.default_rng(seed)

    def character(W: np.ndarray) -> np.ndarray:
        """Class character of span(W), W orthonormal and span(W) invariant."""
        p = W.conj() @ W[0]  # p[h] = (W W^*)[e, h]
        return np.add.reduceat(p[by_class], class_starts) * (n / sizes)

    def is_irreducible(chi: np.ndarray) -> bool:
        norm = sizes @ np.abs(chi) ** 2 / n
        if abs(norm - round(norm)) > _INTEGRALITY_TOL:
            raise SplitFailure("character self-inner-product is not close to an integer")
        return round(norm) == 1

    def pieces() -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The irreducible pieces of the next draw and their class characters."""
        table = G.dense_table()
        f_sym, f_anti = _halves(rng.standard_normal((n, n)), table)
        Ht = _spread(f_sym, table, G._inv)
        del table
        evals, evecs = np.linalg.eigh(Ht)  # eigh reads one triangle
        del Ht
        K = None
        bases: list[np.ndarray] = []
        chars: list[np.ndarray] = []
        for sel in _cluster(evals):
            V = evecs[:, sel]
            chi = character(V)
            if is_irreducible(chi):
                bases.append(V)
                chars.append(chi)
                continue
            if K is None:
                K = _spread(f_anti, G.dense_table(), G._inv)
            kevals, E = np.linalg.eigh(1j * (V.T @ K @ V))
            for s in _cluster(kevals):
                W = V @ E[:, s]
                piece = character(W)
                if not is_irreducible(piece):
                    raise SplitFailure("an eigenspace piece is reducible")
                bases.append(W)
                chars.append(piece)
        return bases, chars

    for attempt in range(_MAX_RETRIES):
        try:
            bases, chars = pieces()
            break
        except SplitFailure:
            if attempt == _MAX_RETRIES - 1:
                raise
    first = _first_isomorphic(np.array(chars), sizes)
    del chars
    members_count = np.bincount(first, minlength=len(bases))

    heads = np.flatnonzero(first == np.arange(len(bases)))
    dims = np.array([bases[b].shape[1] for b in heads])
    for b, d in zip(heads, dims):
        if members_count[b] != d:
            raise SplitFailure(f"isotypic multiplicity {members_count[b]} != dimension {d}")
    reps = {b: bases[b] for b in heads.tolist()}
    del bases  # the other members of each class
    irreps: list[UnitaryIrrep] = []
    for d in sorted(set(dims.tolist())):  # one tabulation for all classes of a dimension
        stack = np.stack([reps.pop(b) for b in heads[dims == d].tolist()])
        tables = _tabulate(stack, G).astype(np.complex128, copy=False)
        del stack
        for mats in tables:
            irreps.append(UnitaryIrrep(d, mats, np.einsum("gii->g", mats)))
    if sum(r.dim * r.dim for r in irreps) != n:
        raise SplitFailure("squared dimensions of the classes do not sum to |G|")
    # stably by the rounded real character in element order; at the identity it is the dimension
    rounded = np.round([r.character.real for r in irreps], 6)
    irreps = [irreps[i] for i in np.lexsort(rounded.T[::-1])]
    _validate_unitary(irreps)
    return irreps


def _first_isomorphic(chars: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each irreducible character (a row of class values), the index of the
    first row with inner product 1 with it.  The Gram matrix is formed a block
    of rows at a time and conjugated, (conj(chars) * sizes) @ chars^T, which
    has the same real parts and needs no conjugated copy of all the rows."""
    first = np.empty(len(chars), dtype=np.intp)
    for rows in _row_blocks(len(chars)):
        gram = (chars[rows].conj() * sizes) @ chars.T / np.sum(sizes)
        rounded = np.round(gram.real)
        if np.max(np.abs(gram - rounded)) > _INTEGRALITY_TOL:
            raise SplitFailure("isomorphism-class inner product not close to an integer")
        first[rows] = np.argmax(rounded == 1, axis=1)
    return first


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
        raise ConsistencyFailure("squared dimensions do not sum to |G|")


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
        raise ConsistencyFailure(f"imaginary residue {worst:.2e} exceeds {_IMAG_TOL:.1e}")
    return acc.real
