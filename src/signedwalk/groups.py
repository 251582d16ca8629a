"""Enumerated finite groups with index-based multiplication.

Every element is one row of small non-negative ints: a permutation's images, a
table element's index, or an m x m matrix's m row codes (row i of the matrix
read base p, in [0, p^m)).  A `RowArith` holds all that depends on the family:
the product of aligned rows (matmul mod p, `take_along_axis`, or a table
lookup), the product by fixed right factors (`right_mul`: a row code times a
fixed matrix is a row code, so one gather through a p^m-entry table per
factor), the byte encoder behind `encode()`, and a sortable key per row in
`encode()` order.  Rows are row codes only for p^m <= ROW_TABLE_BOUND = 2^20
(above it a row is the m*m entries).  The k * p^m table entries of k factors
are built only when they fit that bound (4 MB) and the caller will ask for at
least as many row products, since a table entry costs about a tenth of one
composed row; other products compose on entries (`right_mul` decodes its rows
once per call, however many factors it multiplies in turn).  The key is the
int64 code of the row (for row codes, the same number as the base-p code of
the entries) when every key fits below 2^63, else the `np.void` view of the
row's values as big-endian unsigned ints; either decodes back to its row.
A group stores only the keys of its elements, in index order with their
sorting permutation for `searchsorted` lookups, and decodes rows on demand,
so no group method branches on the variant.

`close_generators` numbers the elements in breadth-first order (identity at
index 0); within a BFS layer the new elements are sorted by key, so indices
are reproducible across runs.  The multipliers (the generators and their
inverses) are closed under inversion, so the Cayley graph is undirected and
every product of layer k lies in layer k-1, k or k+1: each layer's products are
tested against the keys of layers k-1 and k only.  A product's index is then
its layer's start plus its position among that layer's sorted keys, so the
same pass writes the generator tree: the right-multiplication columns of the
multipliers, the start of every layer and, for every h >= 1, the first product
g * t that found h, with g < h its parent in the layer before.  Each layer
writes its product keys into one buffer and deduplicates them (`_unique`):
int64 keys whose bits leave room for the product's position are packed as
key << b | position into that same buffer and sorted in place, so equal keys
meet in product order and no argsort or sorted copy is made.  Each layer
decodes the rows of its new elements from their keys, and its temporaries
are freed before the next layer sorts its products; the tree is int32
throughout, and the inverses are read off the finished tree by index, one
multiplier row per gather (`_inverses`).  A table closure that numbers more
elements than the table has, or inverses that do not pair up, mean the table
is not associative.  A group never changes after construction.  `mul_many`
takes one right factor or an index array aligned with the left factors, so a
batch of unrelated products (e.g. the next power of every class
representative) is one call.

Everything else that needs whole-group arithmetic is index gathers along the
tree: the column of any element (`right_column`: its tree word composed), the
conjugacy classes (connected components of the int32 conjugation permutations
h -> t^-1 h t of the distinct generators t, found by min-label hooking in both
directions with pointer jumping until every permutation maps the labels onto
themselves) and,
on demand for the regular representation, the dense multiplication table
(`dense_table`: row h is row parent[h] read through the left multiplication
by its multiplier, one BFS layer of rows per gather).
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
    is_square,
    same_family,
)
from .errors import CapExceeded, NotInGroup
from .primes import is_prime

DEFAULT_CLOSURE_CAP = 4_000_000
ROW_TABLE_BOUND = 2**20  # most row codes p^m, and most entries of one product table


# ---------------------------------------------------------------------------
# row arithmetic of one element family
# ---------------------------------------------------------------------------


class RowArith:
    """Rows, products, encodings and sort keys for the family of `template`;
    matrix rows are row codes while p^m <= ROW_TABLE_BOUND (module docstring)."""

    def __init__(self, template: GroupElement) -> None:
        self.family = template.family
        self.p = self.m = self.degree = self.table = None
        self._digits = None  # p^(m-1), ..., p, 1 when matrix rows are row codes
        if isinstance(template, MatrixElement):
            p, m = template.p, template.m
            if m * (p - 1) ** 2 >= 2**63:  # the largest entry of an int64 matmul
                raise CapExceeded(f"products of {m}x{m} matrices mod p={p} overflow int64")
            self.variant, self.p, self.m = "matrix_mod_p", p, m
            base, width, entries, top = p, m * m, m * m, p - 1
            if p**m <= ROW_TABLE_BOUND:
                self._digits = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
                base, width = p**m, m
            ident = MatrixElement.identity(p, m)
        elif isinstance(template, PermutationElement):
            self.variant, self.degree = "permutation", template.degree
            base = width = entries = template.degree
            top, ident = base - 1, PermutationElement.identity(base)
        else:
            self.variant, self.table = "table", template.table
            base, width, entries, top = template.table.size, 1, 1, 2**32 - 1  # 4-byte index
            ident = TableElement(template.table, template.table.identity_index)
        byte_width = _byte_width(top)
        self.entry_count = entries  # matrix entries, images or 1 per element
        self.row_bytes = entries * byte_width
        self._shifts = 8 * np.arange(byte_width - 1, -1, -1, dtype=np.int64)
        self._base, self._width, self._powers = base, width, None
        # byte keys: each row value as a big-endian unsigned int of 1, 2, 4 or 8 bytes
        self._key_dtype = np.dtype(f">u{1 << (_byte_width(base - 1) - 1).bit_length()}")
        self.key_dtype = np.dtype((np.void, width * self._key_dtype.itemsize))
        if base**width < 2**63:
            self._powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
            self.key_dtype = np.dtype(np.int64)
        self.identity = self.rows([ident])

    def rows(self, elements) -> np.ndarray:
        """(len, width) int64 rows of elements of this family."""
        out = []
        for g in elements:
            if g.family != self.family:
                raise NotInGroup("element family does not match group")
            if self.variant == "table":
                out.append((g.index,))
            else:
                out.append(g.entries if self.variant == "matrix_mod_p" else g.images)
        return self._from_entries(np.array(out, dtype=np.int64).reshape(len(out), -1))

    def entries(self, rows: np.ndarray) -> np.ndarray:
        """(len, entries) int64: the matrix entries, images or index of each row."""
        if self._digits is None:
            return rows
        p, m = self.p, self.m
        out = np.empty((len(rows), m, m), dtype=np.int64)
        for j in range(m - 1, -1, -1):  # last digit first: divisions by a scalar are fast
            quot = rows // p
            out[:, :, j] = rows - quot * p
            rows = quot
        return out.reshape(len(out), m * m)

    def _from_entries(self, entries: np.ndarray) -> np.ndarray:
        """The rows whose `entries` these are."""
        if self._digits is None:
            return entries
        return entries.reshape(len(entries), self.m, self.m) @ self._digits

    def element(self, row: np.ndarray) -> GroupElement:
        vals = tuple(self.entries(row[None])[0].tolist())
        if self.variant == "matrix_mod_p":
            return MatrixElement(self.p, self.m, vals)
        if self.variant == "permutation":
            return PermutationElement(vals)
        return TableElement(self.table, vals[0])

    def compose(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Rows of left[i] * right[i]; a one-row side broadcasts against the other."""
        return self._from_entries(self._compose_entries(self.entries(left), self.entries(right)))

    def _compose_entries(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """`compose` on entries (see `entries`) instead of rows."""
        if self.variant == "matrix_mod_p":
            m = self.m
            prod = np.matmul(left.reshape(-1, m, m), right.reshape(-1, m, m))
            prod %= self.p
            return prod.reshape(-1, m * m)
        if self.variant == "permutation":  # (l * r)(x) = l(r(x))
            return np.take_along_axis(left, right, axis=1)
        return self.table.products[left, right]

    def tables_fit(self, factors: int, work: int) -> bool:
        """Whether `right_mul` of `factors` right factors, asked for `work` row
        products, builds tables: with row codes, when the factors * p^m table
        entries are at most ROW_TABLE_BOUND and at most `work`."""
        return self._digits is not None and factors * self._base <= min(ROW_TABLE_BOUND, work)

    def right_mul(self, factors: np.ndarray, work: int):
        """The product by the fixed (k, width) right factors, as a function
        (rows, picks) -> rows of rows[s] * factors[picks[s, 0]] * factors[picks[s, 1]]
        * ...; picks is one index, one index per row or one row of indices
        per row.  Where `tables_fit`, it builds the (k, p^m) int32 table of
        every row code times every factor here, once, all factors together,
        and each product is one gather; otherwise the products compose, on
        entries decoded once per call."""

        def steps(picks) -> np.ndarray:  # (steps, rows or 1) factor indices
            picks = np.asarray(picks, dtype=np.int64)
            return (picks if picks.ndim == 2 else picks.reshape(-1, 1)).T

        if not self.tables_fit(len(factors), work):
            factor_entries = self.entries(factors)

            def composed(rows: np.ndarray, picks) -> np.ndarray:
                cur = self.entries(rows)
                for pick in steps(picks):
                    cur = self._compose_entries(cur, factor_entries[pick])
                return self._from_entries(cur)

            return composed
        p, m, k, base = self.p, self.m, len(factors), self._base
        t = self.entries(factors).reshape(k, 1, m, m)
        terms = (np.arange(p)[:, None, None] * t % p).astype(np.int32)  # [f, r, i, j] = r t_f,ij
        table = np.zeros(k * base, dtype=np.int32)  # int32: sums stay below m * p, codes below p^m
        for j in range(m):  # digit j of (every row code) * t_f: an outer sum over rows i
            digit = np.zeros((k, 1), dtype=np.int32)
            for i in range(m):
                digit = (digit[:, :, None] + terms[:, None, :, i, j]).reshape(k, -1)
            digit %= p  # in place, as below: fewer temporaries, no extra heap growth
            table *= p
            table += digit.ravel()

        def gathered(rows: np.ndarray, picks) -> np.ndarray:
            for pick in steps(picks):
                rows = table[rows + base * pick[:, None]]
            return rows

        return gathered

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """(len, row_bytes) uint8: each row's `encode()` bytes, entries big-endian."""
        entries = self.entries(rows)
        data = (entries[:, :, None] >> self._shifts) & 0xFF
        return data.astype(np.uint8).reshape(len(rows), self.row_bytes)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Sortable keys in `encode()` order, of dtype `key_dtype`: the int64
        base-`base` code of the row where it fits, else the `np.void` view of its
        big-endian values."""
        if self._powers is None:
            return rows.astype(self._key_dtype).view(self.key_dtype).ravel()
        return rows @ self._powers

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """The (len, width) int64 rows whose `keys` these are."""
        if self._powers is None:
            return keys.view(self._key_dtype).reshape(len(keys), self._width).astype(np.int64)
        return keys[:, None] // self._powers % self._base


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position of each key in the nonempty sorted_keys, whether it is there)."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.size - 1)
    return pos, sorted_keys[pos] == keys


def _pack_bits(keys: np.ndarray) -> int | None:
    """The position bits b with which `_unique` packs `keys` (the bits of the
    largest position), when they are non-negative int64 codes whose largest
    key has at most 64 - b bits; else None."""
    if keys.dtype != np.int64 or not keys.size:
        return None
    b = (keys.size - 1).bit_length()
    return b if int(keys.max()).bit_length() + b <= 64 else None


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`np.unique(keys, return_index=True, return_inverse=True)` with an int32
    inverse; `keys` is overwritten, and freed once sorted if the caller holds no
    other reference (a temporary argument).  Where `_pack_bits` allows, the keys'
    own buffer becomes the uint64 words key << b | position, sorted in place:
    equal keys sort by position, so the head of each run is the key's first
    index, and the order is the words' low b bits.  Other keys (`np.void`, or
    too many bits) take one argsort and a sorted copy, with the first index the
    least position among a key's copies, so that sort need not be stable."""
    b = _pack_bits(keys)
    if b is None:
        order = np.argsort(keys)
        keys = keys[order]
    else:
        keys = keys.view(np.uint64)
        keys <<= b
        keys |= np.arange(keys.size, dtype=np.uint32)
        keys.sort()
        order = np.empty(keys.size, dtype=np.int32)
        np.bitwise_and(keys, (1 << b) - 1, out=order, casting="unsafe")
        keys >>= b
        keys = keys.view(np.int64)
    head = np.empty(keys.size, dtype=bool)
    head[:1] = True
    head[1:] = keys[1:] != keys[:-1]  # np.void has no `not_equal` loop, only `!=`
    uniq = keys[head]
    del keys
    first = order[head] if b is not None else np.minimum.reduceat(order, np.flatnonzero(head))
    ranks = np.cumsum(head, dtype=np.int32)
    ranks -= 1
    inverse = np.empty(ranks.size, dtype=np.int32)
    inverse[order] = ranks
    return uniq, first, inverse


@dataclass(frozen=True)
class GeneratorTree:
    """Right-multiplication columns of the multipliers (the generators and their
    inverses) and a spanning tree of the Cayley graph: for every h >= 1,
    h = parent[h] * mults[via[h]] with parent[h] < h (entries at 0 are unused).

    The tree is the closure's BFS: layer k, the elements at distance k from the
    identity, holds indices starts[k] .. starts[k + 1] - 1 (starts[0] = 0,
    starts[-1] = |G|), and the parents of layer k >= 1 all lie in layer k - 1.
    So a homomorphism, known on the multipliers, is filled in on all of G by
    one batched step per layer, parents before children."""

    mults: tuple[int, ...]  # distinct multiplier indices, generators first
    cols: np.ndarray  # (k, |G|) int32, cols[k, h] = index of g_h * t_k
    via: np.ndarray  # (|G|,) int32
    parent: np.ndarray  # (|G|,) int32
    starts: tuple[int, ...]  # first index of each BFS layer, then |G|


def _inverses(tree: GeneratorTree) -> np.ndarray:
    """inv[h] = index of g_h^-1, filled down the tree through the left columns
    left[u, h] = index(t_u * g_h) of the multipliers t_u: from g_h = g_parent * t_via,
    left[:, h] = cols[via, left[:, parent]] and inv[h] = left[via^-1, inv[parent]],
    as g_h^-1 = t_via^-1 * g_parent^-1.  An element and its inverse share a
    layer, so each layer reads only layers before it.  Each layer gathers the
    left columns one multiplier row at a time, so its index temporaries are one
    layer long, then the inverses in one gather."""
    cols, via, parent = tree.cols, tree.via, tree.parent
    inv_of = np.argmax(cols[:, cols[:, 0]] == 0, axis=0)  # t_u * t_inv_of[u] = 1
    left = np.zeros_like(cols)  # zeros: outside a group a read may precede its write
    left[:, 0] = cols[:, 0]
    inv = np.zeros(cols.shape[1], dtype=np.int32)
    for s, e in zip(tree.starts[1:], tree.starts[2:]):
        v, p = via[s:e], parent[s:e]
        for row in left:
            row[s:e] = cols[v, row[p]]
        inv[s:e] = left[inv_of[v], inv[p]]
    return inv


# ---------------------------------------------------------------------------
# the group
# ---------------------------------------------------------------------------


class FiniteGroup:
    """Finite group enumerated from generators; all queries are index-based.

    Element i has key `_keys[i]` under the group's `RowArith`; its row is
    decoded from the key when needed.  Built complete by `close_generators`
    (keys, inverses, generator indices and generator tree) and never changed
    afterwards, so it is safe to share across threads.
    """

    def __init__(self, arith: RowArith, keys, inv, tree: GeneratorTree, generator_rows) -> None:
        self._arith = arith
        self.variant, self.p, self.m, self.degree = arith.variant, arith.p, arith.m, arith.degree
        self.order = len(keys)
        self._keys = keys
        self._key_perm = np.argsort(keys)  # intp: an int32 sorter is cast on every lookup
        self._inv = inv
        self.tree = tree
        self.generator_indices = tuple(self._lookup(arith.keys(generator_rows)).tolist())

    # -- element access ------------------------------------------------

    def _decode(self, idxs) -> np.ndarray:
        return self._arith.decode(self._keys[np.reshape(idxs, -1)])

    def element(self, i: int) -> GroupElement:
        if not (0 <= i < self.order):
            raise NotInGroup(f"index {i} out of range")
        return self._arith.element(self._decode(i)[0])

    def index_of(self, g: GroupElement) -> int:
        return int(self._lookup(self._arith.keys(self._arith.rows([g])))[0])

    def hex_encodings(self, idxs) -> list[str]:
        """`element(i).encode().hex()` for every i in idxs, without building elements."""
        data = self._arith.encode(self._decode(np.asarray(idxs, dtype=np.int64))).tobytes().hex()
        k = 2 * self._arith.row_bytes
        return [data[i : i + k] for i in range(0, len(data), k)]

    # -- index arithmetic ------------------------------------------------

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._keys, keys, sorter=self._key_perm)
        idx = self._key_perm[np.minimum(pos, self.order - 1)]
        if not np.all(self._keys[idx] == keys):
            raise NotInGroup("element not in enumerated group")
        return idx

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_many(np.array([i]), j)[0])

    def inv(self, i: int) -> int:
        return int(self._inv[i])

    def mul_many(self, idxs: np.ndarray, j) -> np.ndarray:
        """Indices of g_i * g_j for all i in idxs; j is one index, or an index
        array aligned with idxs (one product per pair)."""
        arith = self._arith
        return self._lookup(arith.keys(arith.compose(self._decode(idxs), self._decode(j))))

    def right_column(self, x: int) -> np.ndarray:
        """Column h -> index(g_h * g_x): the multiplier columns composed along
        the tree path from the identity to x, one gather per edge after the first."""
        tree = self.tree
        path = []
        while x:
            path.append(int(tree.via[x]))
            x = int(tree.parent[x])
        col = tree.cols[path.pop()].copy() if path else np.arange(self.order, dtype=np.int32)
        for k in reversed(path):
            col = tree.cols[k][col]
        return col

    def dense_table(self) -> np.ndarray:
        """The (|G|, |G|) int32 table[i, j] = index(g_i * g_j), filled one BFS
        layer of rows per gather: from g_i = g_parent * t, row i is row
        parent[i] read through the left multiplication h -> t h, and the parents
        lie in the layer before.  Rows, unlike columns, are written whole.  The
        left multiplication by t is read off the column of t^-1, another
        multiplier: t g_h = (g_h^-1 t^-1)^-1."""
        n, tree, inv = self.order, self.tree, self._inv
        inverse_mult = [tree.mults.index(int(inv[t])) for t in tree.mults]
        left = inv[tree.cols[inverse_mult][:, inv]]
        table = np.empty((n, n), dtype=np.int32)
        table[0] = np.arange(n)
        for lo, hi in zip(tree.starts[1:-1], tree.starts[2:]):
            table[lo:hi] = table[tree.parent[lo:hi, None], left[tree.via[lo:hi]]]
        return table


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def _next_layer(arith: RowArith, mults, frontier, prev, cur, prev_start: int, start: int):
    """One BFS step from `frontier`, the rows of layer k with sorted keys `cur`
    (indices from `start`); `prev` holds the sorted keys of layer k-1 (indices
    from `prev_start`).  Returns the (multipliers, F) int32 columns of the
    frontier's products, the parent's position in the frontier and the
    multiplier of the first product that found each new element (int32), and
    the new elements' sorted keys.  Each unique product key is numbered by its
    layer's start plus its position in the sorted keys of layer k-1, k or (new)
    k+1, which starts at start + F.  Every temporary of the layer dies on
    return, before the next layer sorts."""
    F, k = len(frontier), len(mults)
    times = arith.right_mul(mults, F * k)  # tables once a layer has p^m rows

    def product_keys() -> np.ndarray:  # the keys of frontier * t_u, multiplier-major
        keys = np.empty(k * F, dtype=arith.key_dtype)
        for u in range(k):
            keys[u * F : (u + 1) * F] = arith.keys(times(frontier, u))
        return keys

    # a temporary argument: `_unique` holds the only reference and sorts it in place
    uniq, first, slot = _unique(product_keys())
    pos_prev, in_prev = _find(prev, uniq)
    pos_cur, in_cur = _find(cur, uniq)
    fresh = ~(in_prev | in_cur)
    index = np.where(in_cur, start + pos_cur, prev_start + pos_prev).astype(np.int32)
    pick = first[fresh].astype(np.int32)
    index[fresh] = np.arange(start + F, start + F + pick.size, dtype=np.int32)
    return index[slot].reshape(k, F), pick % F, pick // F, uniq[fresh]


def close_generators(generators, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Breadth-first closure of the generators under products and inverses.

    Deterministic element numbering: identity first, then layer by layer in
    canonical-encoding order (see the module docstring).  Raises CapExceeded
    if the closure grows past `cap` (every CLI command that closes a group
    then exits 3), NotInGroup if the generators do not share one family or
    a table that is not associative leaves the search inconsistent.
    """
    gens = list(generators)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    same_family(gens)
    arith = RowArith(gens[0])
    gen_rows = arith.rows(gens)
    both = np.concatenate([gen_rows, arith.rows([g.inv() for g in gens])])
    mults = both[np.sort(np.unique(arith.keys(both), return_index=True)[1])]

    # Layer k holds indices [start, start + F).  Layer 0 stands in for its own
    # missing predecessor.
    frontier = arith.identity
    layer_keys = [arith.keys(frontier)]
    zero = np.zeros(1, dtype=np.int32)
    cols, via, parent = [], [zero], [zero]
    prev, prev_start, start = layer_keys[0], 0, 0
    while len(frontier):
        F = len(frontier)
        layer_cols, g, t, fresh = _next_layer(
            arith, mults, frontier, prev, layer_keys[-1], prev_start, start
        )
        total = start + F + fresh.size
        if arith.table is not None and total > arith.table.size:  # a key numbered twice
            raise NotInGroup("generators do not close to a group: an element came back")
        if total > cap:
            raise CapExceeded(f"closure exceeded cap {cap}")
        cols.append(layer_cols)
        parent.append(g + start)
        via.append(t)
        frontier = arith.decode(fresh)
        prev, prev_start, start = layer_keys[-1], start, start + F
        layer_keys.append(fresh)

    # one array at a time, each list freed as its array is made
    starts = np.cumsum([0] + [len(k) for k in layer_keys[:-1]])  # the last layer is empty
    keys = np.concatenate(layer_keys)
    del layer_keys
    cols = np.concatenate(cols, axis=1)
    via = np.concatenate(via)
    parent = np.concatenate(parent)
    tree = GeneratorTree(tuple(cols[:, 0].tolist()), cols, via, parent, tuple(starts.tolist()))
    inv = _inverses(tree)
    if not np.array_equal(inv[inv], np.arange(len(inv))):
        raise NotInGroup("generators do not close to a group: inversion is not an involution")
    return FiniteGroup(arith, keys, inv, tree, gen_rows)


# ---------------------------------------------------------------------------
# orders, classes, centers
# ---------------------------------------------------------------------------


def element_order(G: FiniteGroup, g: GroupElement | int) -> int:
    """Smallest k >= 1 with g^k = identity, for an index or a member of G."""
    if isinstance(g, int):
        return G.element(g).order()
    G.index_of(g)  # NotInGroup unless g is a member
    return g.order()


@dataclass(frozen=True)
class ConjugacyClasses:
    """Partition of an enumerated group into conjugacy classes."""

    class_of: np.ndarray  # element index -> class id
    representatives: tuple[int, ...]  # lowest element index per class
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    """Connected components of conjugation by the generators.

    Conjugation by t^-1 for a generator t is h -> t^-1 h t = inv[R[inv[R[h]]]],
    R the column of t: four gathers into an int32 permutation.  Conjugation by
    t is its inverse permutation, so it adds no edge to the components, and the
    distinct generators are the first len(set(generator_indices)) multiplier
    columns of the tree (the identity among them if it is a generator).  Each
    round hooks, for every h and each conjugate h' of h, the label of h onto
    that of h' and the label of h' onto that of h, whichever is smaller (two
    scatter-mins), then jumps pointers (lab = lab[lab]) until
    every label is a root.  Rounds repeat until every permutation maps the
    labels onto themselves (lab[pi] == lab, one gather each), so the labels are
    constant on every orbit.  Hooking labels rather than elements merges whole
    label trees, so a long conjugation cycle (the reflections of a large
    dihedral group) takes a few rounds, not one per step along it.  The final
    label of a class is its lowest index, the representative; class ids follow
    the representatives in increasing order.
    """
    inv = G._inv
    perms = [inv[R[inv[R]]] for R in G.tree.cols[: len(set(G.generator_indices))]]
    lab = np.arange(G.order, dtype=np.int32)
    while True:
        for pi in perms:
            roots = lab.copy()
            image = roots[pi]
            np.minimum.at(lab, roots, image)
            np.minimum.at(lab, image, roots)
        jumped = lab[lab]
        while not np.array_equal(jumped, lab):
            lab, jumped = jumped, jumped[jumped]
        if all(np.array_equal(lab[pi], lab) for pi in perms):
            break
    reps, class_of = np.unique(lab, return_inverse=True)
    sizes = np.bincount(class_of)
    return ConjugacyClasses(
        class_of.astype(np.int64, copy=False), tuple(reps.tolist()), tuple(sizes.tolist())
    )


# ---------------------------------------------------------------------------
# group specification files (the on-disk contract)
# ---------------------------------------------------------------------------


def is_spec_int(value) -> bool:
    """Whether a spec value is an int; JSON true/false (Python bools) are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def spec_field(spec, key: str, of_type: type | None = None):
    """spec[key] of a spec dict, checked to be an `of_type` (never a bool) when
    given; ValueError naming the key when it is missing or of another type."""
    if not isinstance(spec, dict):
        raise ValueError(f"a spec must be a JSON object, not {type(spec).__name__}")
    if key not in spec:
        raise ValueError(f"spec has no {key!r}")
    if of_type is not None and (isinstance(spec[key], bool) or not isinstance(spec[key], of_type)):
        raise ValueError(f"spec {key!r} must be of type {of_type.__name__}")
    return spec[key]


def spec_prime(spec) -> int:
    """The modulus "p" of a matrix_mod_p spec; ValueError unless it is a prime."""
    p = spec_field(spec, "p", int)
    if not is_prime(p):
        raise ValueError(f"spec 'p' must be a prime, not {p}")
    return p


def element_from_entry(
    kind: str, entry, p: int | None = None, table: MulTable | None = None
) -> GroupElement:
    """One inline element of a group-spec kind: a square list of int lists
    reduced mod p (matrix_mod_p), a list of ints (permutation images) or one int
    (table index).  ValueError when the entry does not have that shape."""
    if kind == "matrix_mod_p":
        if not is_square(entry):
            raise ValueError("a matrix_mod_p entry must be a square list of int lists")
        return MatrixElement.from_rows(entry, p)
    if kind == "permutation":
        if not (isinstance(entry, (list, tuple)) and all(map(is_spec_int, entry))):
            raise ValueError("a permutation entry must be a list of ints")
        return PermutationElement(tuple(entry))
    if kind == "table":
        if not is_spec_int(entry):
            raise ValueError("a table entry must be one int")
        return TableElement(table, entry)
    raise ValueError(f"unknown group kind: {kind!r}")


def generators_from_spec(spec: dict) -> list[GroupElement]:
    """Parse a group-spec dict into a generator list."""
    kind = spec_field(spec, "kind")
    p = table = None
    if kind == "matrix_mod_p":
        p, m = spec_prime(spec), spec_field(spec, "m", int)
    elif kind == "permutation":
        degree = spec_field(spec, "degree", int)
    elif kind == "table":
        table = MulTable(spec_field(spec, "table"))
        size = spec.get("size", table.size)
        if not is_spec_int(size) or size != table.size:
            raise ValueError("table size mismatch")
        if spec.get("generators") is None:
            return [TableElement(table, i) for i in range(table.size)]
    else:
        raise ValueError(f"unknown group kind: {kind!r}")
    gens = [element_from_entry(kind, e, p, table) for e in spec_field(spec, "generators", list)]
    if kind == "matrix_mod_p" and any(g.m != m for g in gens):
        raise ValueError("generator size does not match 'm'")
    if kind == "permutation" and any(g.degree != degree for g in gens):
        raise ValueError("generator degree does not match 'degree'")
    return gens


def group_from_spec(spec: dict, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    return close_generators(generators_from_spec(spec), cap=cap)


def element_from_spec(G: FiniteGroup, data) -> GroupElement:
    """Inline element spec of G's kind: matrix rows, permutation image list, or table index."""
    return element_from_entry(G.variant, data, G.p, G._arith.table)
