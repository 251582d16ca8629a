"""Enumerated finite groups with index-based multiplication.

A `FiniteGroup` is built by breadth-first closure from a generator list.
Element indices follow BFS discovery order (identity at index 0); within a
BFS layer, newly discovered elements are sorted by their canonical encoding,
so indices are reproducible across runs.  Matrix groups get a vectorized
numpy path (codes + searchsorted) that scales to a few million elements: each
BFS layer computes only the codes of its products, keeps the unseen ones
(sorted-array membership), rebuilds just those rows and carries their inverses
along the tree as t^-1 * g^-1, so no inversion runs after closure.
Permutation and table groups use a dict of encodings.  `mul_many` takes one
right factor or an index array aligned with the left factors, so a batch of
unrelated products (e.g. the next power of every class representative) is
one call.

The generator tree (`generator_tree`, built on first use and cached) holds
the right-multiplication columns of the generators and their inverses and,
for every h >= 1, a parent g < h and a multiplier t with h = g * t (the BFS
numbering always provides one).  Only the generator columns are products the
variant computes; each inverse column is the inverse permutation of its
generator's column.  Everything else that needs whole-group arithmetic is
index gathers along this tree: the dense multiplication table (built when the
order is at most `DENSE_TABLE_CAP`: column h is column g gathered through the
column of t), the column of any element (its tree word composed), and the
conjugacy classes (connected components of the conjugation permutations
h -> t h t^-1, found by min-label hooking with pointer jumping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import (
    GroupElement,
    MatrixElement,
    MulTable,
    PermutationElement,
    TableElement,
    _byte_width,
    same_family,
)
from .errors import CapExceeded, NotInGroup, SizeCap

DEFAULT_CLOSURE_CAP = 4_000_000
DENSE_TABLE_CAP = 4096


# ---------------------------------------------------------------------------
# vectorized helpers for the matrix variant
# ---------------------------------------------------------------------------


def _mat_codes(mats: np.ndarray, p: int) -> np.ndarray:
    """Base-p integer codes, first entry most significant (matches byte encoding)."""
    flat = mats.reshape(mats.shape[0], -1).astype(np.int64)
    k = flat.shape[1]
    powers = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return flat @ powers


def _codes_fit(p: int, m: int) -> bool:
    return p ** (m * m) < 2**62


@dataclass(frozen=True)
class GeneratorTree:
    """Right-multiplication columns of the multipliers (the generators and their
    inverses) and a spanning tree of the Cayley graph: for every h >= 1,
    h = parent[h] * mults[via[h]] with parent[h] < h (entries at 0 are unused)."""

    mults: tuple[int, ...]  # distinct multiplier indices, generators first
    cols: np.ndarray  # (k, |G|) int32, cols[k, h] = index of g_h * t_k
    via: np.ndarray
    parent: np.ndarray

    def column(self, x: int) -> np.ndarray:
        """Column h -> index(g_h * g_x): the multiplier columns composed along
        the tree path from the identity to x, one gather per edge."""
        path = []
        while x:
            path.append(int(self.via[x]))
            x = int(self.parent[x])
        col = np.arange(self.cols.shape[1], dtype=np.int32)
        for k in reversed(path):
            col = self.cols[k][col]
        return col


# ---------------------------------------------------------------------------
# the group
# ---------------------------------------------------------------------------


class FiniteGroup:
    """Finite group enumerated from generators; all queries are index-based.

    Immutable after construction, apart from caches filled on first use (the
    generator tree, right columns) with values that do not depend on who fills
    them; safe to share across threads.
    """

    def __init__(self) -> None:  # populated by the factory functions below
        self.variant: str = ""
        self.order: int = 0
        self.generator_indices: tuple[int, ...] = ()
        self._inv: np.ndarray | None = None
        self._table: np.ndarray | None = None
        self._right_cols: dict[int, np.ndarray] = {}
        self._tree: GeneratorTree | None = None
        # matrix variant
        self.p: int | None = None
        self.m: int | None = None
        self._mats: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._sorted_codes: np.ndarray | None = None
        self._code_perm: np.ndarray | None = None
        # permutation variant
        self.degree: int | None = None
        self._imgs: np.ndarray | None = None
        # table variant
        self._multable: MulTable | None = None
        self._member: np.ndarray | None = None  # group index -> table index
        # generic encoding lookup (perm / table)
        self._index: dict[bytes, int] | None = None

    def __len__(self) -> int:
        return self.order

    # -- element access ------------------------------------------------

    def element(self, i: int) -> GroupElement:
        if not (0 <= i < self.order):
            raise IndexError(i)
        if self.variant == "matrix":
            ent = tuple(int(x) for x in self._mats[i].reshape(-1))
            return MatrixElement(self.p, self.m, ent)
        if self.variant == "perm":
            return PermutationElement(tuple(int(x) for x in self._imgs[i]))
        return TableElement(self._multable, int(self._member[i]))

    def elements(self):
        return (self.element(i) for i in range(self.order))

    def index_of(self, g: GroupElement) -> int:
        if self.variant == "matrix":
            if not isinstance(g, MatrixElement) or g.family != ("matrix", self.p, self.m):
                raise NotInGroup("element family does not match group")
            code = 0
            for e in g.entries:
                code = code * self.p + e
            return int(self._lookup(np.array([code], dtype=np.int64))[0])
        if self.variant == "perm":
            if not isinstance(g, PermutationElement) or g.degree != self.degree:
                raise NotInGroup("element family does not match group")
        else:
            if not isinstance(g, TableElement) or g.table is not self._multable:
                raise NotInGroup("element belongs to a different table")
        idx = self._index.get(g.encode())
        if idx is None:
            raise NotInGroup("element not in enumerated group")
        return idx

    def encoding(self, i: int) -> bytes:
        return self.element(i).encode()

    def hex_encodings(self, idxs) -> list[str]:
        """`encoding(i).hex()` for every i in idxs, without building elements."""
        idxs = np.asarray(idxs, dtype=np.int64)
        if self.variant == "matrix":
            rows = self._mats[idxs].reshape(idxs.size, self.m * self.m)
            width = _byte_width(self.p - 1)
        elif self.variant == "perm":
            rows, width = self._imgs[idxs], _byte_width(self.degree - 1)
        else:
            rows, width = self._member[idxs][:, None], 4
        shifts = 8 * np.arange(width - 1, -1, -1, dtype=np.int64)
        data = ((rows[:, :, None] >> shifts) & 0xFF).astype(np.uint8).tobytes().hex()
        k = 2 * rows.shape[1] * width
        return [data[i : i + k] for i in range(0, len(data), k)]

    # -- index arithmetic ------------------------------------------------

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._sorted_codes, codes)
        pos = np.minimum(pos, self.order - 1)
        if not np.all(self._sorted_codes[pos] == codes):
            raise NotInGroup("product code not found (group not closed?)")
        return self._code_perm[pos]

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return int(self._table[i, j])
        return int(self.mul_many(np.array([i]), j)[0])

    def inv(self, i: int) -> int:
        return int(self._inv[i])

    def mul_many(self, idxs: np.ndarray, j) -> np.ndarray:
        """Indices of g_i * g_j for all i in idxs; j is one index, or an index
        array aligned with idxs (one product per pair)."""
        if self._table is not None:
            return self._table[idxs, j]
        if self.variant == "matrix":
            prod = np.matmul(self._mats[idxs], self._mats[j]) % self.p
            return self._lookup(_mat_codes(prod, self.p))
        if self.variant == "perm":
            left = self._imgs[idxs]
            prod = np.take_along_axis(left, np.broadcast_to(self._imgs[j], left.shape), axis=1)
            return np.array(
                [self._index[self._perm_bytes(row)] for row in prod], dtype=np.int64
            )
        raise AssertionError("table groups always carry a dense table")

    def lmul_many(self, i: int, idxs: np.ndarray) -> np.ndarray:
        """Indices of g_i * g_j for all j in idxs."""
        if self._table is not None:
            return self._table[i, idxs]
        if self.variant == "matrix":
            prod = np.matmul(self._mats[i], self._mats[idxs]) % self.p
            return self._lookup(_mat_codes(prod, self.p))
        if self.variant == "perm":
            prod = self._imgs[i][self._imgs[idxs]]
            return np.array(
                [self._index[self._perm_bytes(row)] for row in prod], dtype=np.int64
            )
        raise AssertionError("table groups always carry a dense table")

    def right_column(self, j: int) -> np.ndarray:
        """Cached column i -> index(g_i * g_j), used by the walk engine."""
        col = self._right_cols.get(j)
        if col is None:
            if self._table is not None:
                col = np.array(self._table[:, j])
            else:
                col = self.mul_many(np.arange(self.order), j)
            self._right_cols[j] = col
        return col

    def left_row(self, i: int) -> np.ndarray:
        """Row h -> index(g_i * g_h), used for the regular representation."""
        if self._table is not None:
            return np.array(self._table[i, :])
        return self.lmul_many(i, np.arange(self.order))

    def _perm_bytes(self, row: np.ndarray) -> bytes:
        w = max(1, ((self.degree - 1).bit_length() + 7) // 8) if self.degree > 1 else 1
        if w == 1:
            return bytes(int(x) for x in row)
        return b"".join(int(x).to_bytes(w, "big") for x in row)

    # -- construction helpers ---------------------------------------------

    def generator_tree(self) -> GeneratorTree:
        """The cached generator tree (see the module docstring), built on first use.

        Costs one `mul_many` over the whole group per distinct generator; each
        inverse column is its generator's column inverted by one scatter.  For
        h >= 1 the parent is the smallest h * t^-1 over the multipliers t, which
        lies in the previous BFS layer, so parent[h] < h.
        """
        if self._tree is not None:
            return self._tree
        n = self.order
        idxs = np.arange(n)
        gens = list(dict.fromkeys(self.generator_indices))
        mults = tuple(dict.fromkeys(gens + [int(self._inv[t]) for t in gens]))
        pos = {t: k for k, t in enumerate(mults)}
        inverse_of = np.array([pos[int(self._inv[t])] for t in mults], dtype=np.int64)
        cols = np.empty((len(mults), n), dtype=np.int32)
        for k, t in enumerate(mults):
            if k < len(gens):
                cols[k] = self.mul_many(idxs, t)
            else:  # t is the inverse of the generator at inverse_of[k]
                cols[k, cols[inverse_of[k]]] = idxs
        # the multipliers are closed under inversion, so cols[k, h] = h * t_k
        # runs over every candidate parent h * t^-1, and t = t_k^-1
        best = np.argmin(cols, axis=0)
        parent = cols[best, idxs].astype(np.int64)
        assert np.all(parent[1:] < idxs[1:]), "indices are not in BFS order"
        self._tree = GeneratorTree(mults, cols, inverse_of[best], parent)
        return self._tree

    def _build_dense_table(self) -> None:
        """Fill the table column by column along the generator tree: column h is
        column parent[h] gathered through the column of its multiplier."""
        n = self.order
        if n > DENSE_TABLE_CAP or self._table is not None:
            return
        tree = self.generator_tree()
        table = np.empty((n, n), dtype=np.int32)
        table[:, 0] = np.arange(n)
        for h in range(1, n):
            table[:, h] = tree.cols[tree.via[h]][table[:, tree.parent[h]]]
        self._table = table


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def close_generators(generators, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Breadth-first closure of the generators under products and inverses.

    Deterministic element numbering: identity first, then layer by layer in
    canonical-encoding order.  Raises CapExceeded if the closure grows past
    `cap` (callers can fall back to the Monte-Carlo path), MixedVariants if
    the generators do not share one family.
    """
    gens = list(generators)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    fam = same_family(gens)
    if fam[0] == "matrix":
        if not _codes_fit(fam[1], fam[2]):
            raise SizeCap(f"matrix parameters p={fam[1]}, m={fam[2]} too large to enumerate")
        return _close_matrix(gens, cap)
    return _close_generic(gens, cap)


def _close_matrix(gens: list[MatrixElement], cap: int) -> FiniteGroup:
    p, m = gens[0].p, gens[0].m
    mults, mult_invs = [], []
    seen_codes = set()
    for g in gens + [g.inv() for g in gens]:
        arr = np.array(g.rows(), dtype=np.int64)
        code = int(_mat_codes(arr[None, :, :], p)[0])
        if code not in seen_codes:
            seen_codes.add(code)
            mults.append(arr)
            mult_invs.append(np.array(g.inv().rows(), dtype=np.int64))
    mults, mult_invs = np.stack(mults), np.stack(mult_invs)

    # Each layer computes only the codes of its products; the new rows (sorted
    # by code, so by canonical encoding) are then rebuilt as frontier @ t, and
    # their inverses carried along the tree as t^{-1} @ g^{-1}.
    ident = np.eye(m, dtype=np.int64)[None, :, :]
    frontier, frontier_inv = ident, ident
    level_codes = [_mat_codes(ident, p)]
    levels, inv_levels = [ident], [ident]
    known = level_codes[0]  # sorted codes of every element found so far
    total = 1
    while frontier.shape[0]:
        F = frontier.shape[0]
        codes = np.concatenate([_mat_codes(np.matmul(frontier, t) % p, p) for t in mults])
        uniq, first = np.unique(codes, return_index=True)
        fresh = ~np.isin(uniq, known, assume_unique=True)
        pick, new_codes = first[fresh], uniq[fresh]
        total += pick.size
        if total > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        g, t = pick % F, pick // F
        frontier = np.matmul(frontier[g], mults[t]) % p
        frontier_inv = np.matmul(mult_invs[t], frontier_inv[g]) % p
        levels.append(frontier)
        inv_levels.append(frontier_inv)
        level_codes.append(new_codes)
        known = np.union1d(known, new_codes)

    G = FiniteGroup()
    G.variant = "matrix"
    G.p, G.m = p, m
    G.order = total
    G._mats = np.concatenate(levels, axis=0)
    G._codes = np.concatenate(level_codes)
    G._code_perm = np.argsort(G._codes).astype(np.int64)
    G._sorted_codes = G._codes[G._code_perm]
    G._inv = G._lookup(_mat_codes(np.concatenate(inv_levels, axis=0), p))
    G.generator_indices = tuple(int(G.index_of(g)) for g in gens)
    G._build_dense_table()
    return G


def _close_generic(gens: list[GroupElement], cap: int) -> FiniteGroup:
    ident = _identity_like(gens[0])
    elements: list[GroupElement] = [ident]
    index: dict[bytes, int] = {ident.encode(): 0}
    multipliers = []
    seen = set()
    for g in gens + [g.inv() for g in gens]:
        k = g.encode()
        if k not in seen:
            seen.add(k)
            multipliers.append(g)
    frontier = [ident]
    while frontier:
        discovered: dict[bytes, GroupElement] = {}
        for g in frontier:
            for t in multipliers:
                h = g.mul(t)
                k = h.encode()
                if k not in index and k not in discovered:
                    discovered[k] = h
        frontier = []
        for k in sorted(discovered):
            index[k] = len(elements)
            elements.append(discovered[k])
            frontier.append(discovered[k])
            if len(elements) > cap:
                raise CapExceeded(f"closure exceeded cap {cap}")

    G = FiniteGroup()
    G._index = index
    G.order = len(elements)
    if isinstance(ident, PermutationElement):
        G.variant = "perm"
        G.degree = ident.degree
        G._imgs = np.array([e.images for e in elements], dtype=np.int64)
    else:
        G.variant = "table"
        G._multable = ident.table
        G._member = np.array([e.index for e in elements], dtype=np.int64)
        tab = np.array(ident.table.rows, dtype=np.int64)
        back = -np.ones(ident.table.size, dtype=np.int64)
        back[G._member] = np.arange(G.order)
        G._table = back[tab[np.ix_(G._member, G._member)]].astype(np.int32)
    G._inv = np.array([index[e.inv().encode()] for e in elements], dtype=np.int64)
    G.generator_indices = tuple(index[g.encode()] for g in gens)
    G._build_dense_table()
    return G


def _identity_like(g: GroupElement) -> GroupElement:
    if isinstance(g, MatrixElement):
        return MatrixElement.identity(g.p, g.m)
    if isinstance(g, PermutationElement):
        return PermutationElement.identity(g.degree)
    return TableElement(g.table, g.table.identity_index)


# ---------------------------------------------------------------------------
# orders, classes, centers
# ---------------------------------------------------------------------------


def element_order(G: FiniteGroup, g: GroupElement | int) -> int:
    """Smallest k >= 1 with g^k = identity."""
    i = g if isinstance(g, int) else G.index_of(g)
    if not (0 <= i < G.order):
        raise NotInGroup(f"index {i} out of range")
    k, cur = 1, i
    while cur != 0:
        cur = G.mul(cur, i)
        k += 1
    return k


@dataclass(frozen=True)
class ConjugacyClasses:
    """Partition of an enumerated group into conjugacy classes."""

    class_of: np.ndarray  # element index -> class id
    representatives: tuple[int, ...]  # lowest element index per class
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)

    def members(self, cid: int) -> np.ndarray:
        return np.nonzero(self.class_of == cid)[0]


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    """Connected components of conjugation by the generators and their inverses.

    Conjugation by a multiplier t is h -> t h t^-1 = inv[R[inv[R[h]]]], R the
    column of t^-1: four gathers (R runs over all columns, as the multipliers
    are closed under inversion).  Each round hooks the label of every h onto
    the label of each conjugate of h when that is smaller (a scatter-min), then
    jumps pointers (lab = lab[lab]) until every label is a root; rounds repeat
    until no label changes.  Hooking labels rather than elements merges whole
    label trees, so a long conjugation cycle (the reflections of a large
    dihedral group) takes a few rounds, not one per step along it.  The final
    label of a class is its lowest index, the representative; class ids
    follow the representatives in increasing order.
    """
    inv = G._inv
    perms = [inv[R[inv[R]]] for R in G.generator_tree().cols]
    lab = np.arange(G.order)
    while True:
        before = lab.copy()
        for pi in perms:
            roots = lab.copy()
            np.minimum.at(lab, roots, roots[pi])
        jumped = lab[lab]
        while not np.array_equal(jumped, lab):
            lab, jumped = jumped, jumped[jumped]
        if np.array_equal(lab, before):
            break
    reps, class_of = np.unique(lab, return_inverse=True)
    sizes = np.bincount(class_of)
    return ConjugacyClasses(
        class_of.astype(np.int64, copy=False), tuple(reps.tolist()), tuple(sizes.tolist())
    )


def center_and_centralizer(G: FiniteGroup, g: GroupElement | int) -> tuple[tuple[int, ...], int]:
    """(center as sorted element indices, order of the centralizer of g)."""
    i = g if isinstance(g, int) else G.index_of(g)
    if not (0 <= i < G.order):
        raise NotInGroup(f"index {i} out of range")
    idxs = np.arange(G.order)
    central = np.ones(G.order, dtype=bool)
    for t in G.generator_indices:
        central &= G.mul_many(idxs, t) == G.lmul_many(t, idxs)
    centralizer_size = int(np.count_nonzero(G.mul_many(idxs, i) == G.lmul_many(i, idxs)))
    return tuple(int(z) for z in np.nonzero(central)[0]), centralizer_size


def center_indices(G: FiniteGroup) -> tuple[int, ...]:
    return center_and_centralizer(G, 0)[0]


# ---------------------------------------------------------------------------
# group specification files (the on-disk contract)
# ---------------------------------------------------------------------------


def generators_from_spec(spec: dict) -> list[GroupElement]:
    """Parse a group-spec dict into a generator list."""
    kind = spec.get("kind")
    if kind == "matrix_mod_p":
        p, m = int(spec["p"]), int(spec["m"])
        gens = [MatrixElement.from_rows(rows, p) for rows in spec["generators"]]
        if any(g.m != m for g in gens):
            raise ValueError("generator size does not match 'm'")
        return gens
    if kind == "permutation":
        degree = int(spec["degree"])
        gens = [PermutationElement(tuple(int(x) for x in imgs)) for imgs in spec["generators"]]
        if any(g.degree != degree for g in gens):
            raise ValueError("generator degree does not match 'degree'")
        return gens
    if kind == "table":
        table = MulTable(spec["table"])
        if int(spec.get("size", table.size)) != table.size:
            raise ValueError("table size mismatch")
        gen_idx = spec.get("generators")
        if gen_idx is None:
            gen_idx = list(range(table.size))
        return [TableElement(table, int(i)) for i in gen_idx]
    raise ValueError(f"unknown group kind: {kind!r}")


def group_from_spec(spec: dict, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    return close_generators(generators_from_spec(spec), cap=cap)


def element_from_spec(G: FiniteGroup, data) -> GroupElement:
    """Inline element spec: matrix rows, permutation image list, or table index."""
    if G.variant == "matrix":
        return MatrixElement.from_rows(data, G.p)
    if G.variant == "perm":
        return PermutationElement(tuple(int(x) for x in data))
    return TableElement(G._multable, int(data))
