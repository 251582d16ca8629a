"""Concrete group elements: matrices over a prime field, permutations, table entries.

Each kind is immutable and hashable, and carries a canonical byte encoding;
two elements are equal exactly when their kinds, ambient parameters, and
encodings agree.  Matrix encodings are row-major residues, permutation
encodings are image lists, table encodings are the bare index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd

import numpy as np

from .errors import CapExceeded, NotInGroup, NotInvertible


_ORDER_CAP = 10**7  # products `_power_order` may take before CapExceeded


def _byte_width(max_value: int) -> int:
    return max(1, (max_value.bit_length() + 7) // 8)


def _power_order(g: MatrixElement | TableElement) -> int:
    """Smallest k >= 1 with g^k = identity, by repeated multiplication by g."""
    k, cur = 1, g
    while not cur.is_identity():
        cur = cur.mul(g)
        k += 1
        if k > _ORDER_CAP:
            raise CapExceeded("order loop exceeded cap")
    return k


# ---------------------------------------------------------------------------
# matrices over Z/p
# ---------------------------------------------------------------------------


def _mat_rows(entries: tuple[int, ...], m: int) -> list[list[int]]:
    return [list(entries[i * m : (i + 1) * m]) for i in range(m)]


def _inv_entries(entries: tuple[int, ...], m: int, p: int) -> tuple[int, ...]:
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


def is_square(rows, entry_type=int) -> bool:
    """Whether rows is a non-empty square list of lists of `entry_type` values,
    bools excluded (the entry types are collected once, so no Python step runs
    per entry)."""
    return (
        isinstance(rows, (list, tuple))
        and len(rows) > 0
        and all(isinstance(row, (list, tuple)) and len(row) == len(rows) for row in rows)
        and all(
            issubclass(t, entry_type) and t is not bool
            for t in set(map(type, chain.from_iterable(rows)))
        )
    )


@dataclass(frozen=True)
class MatrixElement:
    """Invertible m x m matrix over Z/p, entries stored row-major in [0, p)."""

    p: int
    m: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2 or self.m < 1:
            raise ValueError("need p >= 2 and m >= 1")
        if len(self.entries) != self.m * self.m:
            raise ValueError("entry count does not match matrix size")
        if any(not (0 <= e < self.p) for e in self.entries):
            raise ValueError("entries must be residues in [0, p)")
        _inv_entries(self.entries, self.m, self.p)  # raises NotInvertible when singular

    @classmethod
    def from_rows(cls, rows, p: int) -> "MatrixElement":
        m = len(rows)
        entries = tuple(int(x) % p for row in rows for x in row)
        return cls(p, m, entries)

    @classmethod
    def identity(cls, p: int, m: int) -> "MatrixElement":
        return cls(p, m, tuple(int(i == j) for i in range(m) for j in range(m)))

    def rows(self) -> list[list[int]]:
        return _mat_rows(self.entries, self.m)

    @property
    def family(self) -> tuple:
        return ("matrix", self.p, self.m)

    def mul(self, other: "MatrixElement") -> "MatrixElement":
        if not isinstance(other, MatrixElement) or other.family != self.family:
            raise NotInGroup("matrix multiplication across different families")
        m, p = self.m, self.p
        a, b = self.entries, other.entries
        out = [0] * (m * m)
        for i in range(m):
            base = i * m
            for k in range(m):
                aik = a[base + k]
                if aik:
                    kb = k * m
                    for j in range(m):
                        out[base + j] += aik * b[kb + j]
        return MatrixElement._product(p, m, tuple(x % p for x in out))

    @classmethod
    def _product(cls, p: int, m: int, entries: tuple[int, ...]) -> "MatrixElement":
        """A product or inverse of valid matrices, built without `__post_init__`: it
        is invertible with entries in [0, p) already, so nothing is checked."""
        g = object.__new__(cls)
        g.__dict__.update(p=p, m=m, entries=entries)
        return g

    def inv(self) -> "MatrixElement":
        return MatrixElement._product(self.p, self.m, _inv_entries(self.entries, self.m, self.p))

    def is_identity(self) -> bool:
        m = self.m
        return all(
            self.entries[i * m + j] == (1 if i == j else 0)
            for i in range(m)
            for j in range(m)
        )

    def order(self) -> int:
        return _power_order(self)

    def encode(self) -> bytes:
        w = _byte_width(self.p - 1)
        return b"".join(e.to_bytes(w, "big") for e in self.entries)


# ---------------------------------------------------------------------------
# permutations of {0, ..., degree-1}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermutationElement:
    """Permutation given by its image tuple; product is function composition."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1 or sorted(self.images) != list(range(n)):
            raise ValueError("images must be a bijection on {0,...,degree-1}")

    @classmethod
    def identity(cls, degree: int) -> "PermutationElement":
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def family(self) -> tuple:
        return ("perm", self.degree)

    def mul(self, other: "PermutationElement") -> "PermutationElement":
        if not isinstance(other, PermutationElement) or other.degree != self.degree:
            raise NotInGroup("permutation product across different degrees")
        # (self * other)(x) = self(other(x))
        return PermutationElement(tuple(self.images[i] for i in other.images))

    def inv(self) -> "PermutationElement":
        out = [0] * self.degree
        for i, img in enumerate(self.images):
            out[img] = i
        return PermutationElement(tuple(out))

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

    def order(self) -> int:
        seen = [False] * self.degree
        k = 1
        for start in range(self.degree):
            if seen[start]:
                continue
            length, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = self.images[cur]
                length += 1
            k = k * length // gcd(k, length)
        return k

    def encode(self) -> bytes:
        w = _byte_width(self.degree - 1) if self.degree > 1 else 1
        return b"".join(i.to_bytes(w, "big") for i in self.images)


# ---------------------------------------------------------------------------
# explicit multiplication tables
# ---------------------------------------------------------------------------


def _check_associative(T: np.ndarray, identity: int) -> None:
    """ValueError unless (x y) g = x (y g) for all x, y, g (Light's test).  The g
    that pass are closed under products, so only a generating set is checked:
    each generator is the smallest element that right multiplication by the
    earlier ones does not reach from the identity."""
    reached = np.zeros(len(T), dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros_like(reached)
            hit[T[frontier][:, gens]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached[frontier] = True
    for g in gens:
        col = T[:, g]
        if not np.array_equal(col[T], T[:, col]):
            raise ValueError(f"table is not associative: (x y) {g} != x (y {g}) for some x, y")


class MulTable:
    """Immutable multiplication table of a group on indices 0..size-1: a latin
    square with a two-sided identity, checked to be associative.  `products` is
    the read-only int64 array of the table, products[i, j] = i * j.  Compared and
    hashed by object identity, so elements of distinct tables never mix."""

    def __init__(self, rows) -> None:
        if not is_square(rows):
            raise ValueError("table must be a square list of int lists")
        try:
            T = np.array(rows, dtype=np.int64)
        except OverflowError:  # an int outside int64 is no index
            T = None
        size, ar = len(rows), np.arange(len(rows))
        if T is None or np.any(np.sort(T, axis=1) != ar):
            raise ValueError("table rows must be permutations")
        if np.any(np.sort(T, axis=0) != ar[:, None]):
            raise ValueError("table columns must be permutations")
        idents = np.flatnonzero(np.all(T == ar, axis=1) & np.all(T.T == ar, axis=1))
        if idents.size == 0:
            raise ValueError("table has no two-sided identity")
        ident = int(idents[0])
        _check_associative(T, ident)
        T.flags.writeable = False
        self.size, self.products, self.identity_index = size, T, ident
        self.inverse = tuple(np.argmax(T == ident, axis=1).tolist())

    def mul(self, i: int, j: int) -> int:
        return int(self.products[i, j])


@dataclass(frozen=True)
class TableElement:
    """Element of an explicit multiplication table, identified by its index."""

    table: MulTable = field(repr=False)
    index: int

    def __post_init__(self) -> None:
        if not (0 <= self.index < self.table.size):
            raise ValueError("index outside table")

    @property
    def family(self) -> tuple:
        return ("table", id(self.table))

    def mul(self, other: "TableElement") -> "TableElement":
        if not isinstance(other, TableElement) or other.table is not self.table:
            raise NotInGroup("table elements from different tables")
        return TableElement(self.table, self.table.mul(self.index, other.index))

    def inv(self) -> "TableElement":
        return TableElement(self.table, self.table.inverse[self.index])

    def is_identity(self) -> bool:
        return self.index == self.table.identity_index

    def order(self) -> int:
        return _power_order(self)

    def encode(self) -> bytes:
        return self.index.to_bytes(4, "big")


GroupElement = MatrixElement | PermutationElement | TableElement


def same_family(elements) -> tuple:
    """Common family key of a nonempty element collection; NotInGroup otherwise."""
    it = iter(elements)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("need at least one element") from None
    fam = first.family
    for e in it:
        if e.family != fam:
            raise NotInGroup(f"mixed element families: {fam} vs {e.family}")
    return fam
