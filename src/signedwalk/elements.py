"""Group elements as plain data, and explicit multiplication tables.

An element is an immutable value with no arithmetic of its own: its family
key names the ambient group, ("matrix", p, m), ("perm", degree) or ("table",
id(table)), and its values are the matrix entries row-major in [0, p), the
permutation's images, or the table index.  Two elements are equal exactly when
their families and values agree.  Products, inverses, identity tests, orders
and byte encodings are row operations of `groups.RowArith`, the one place that
decides how elements multiply; `groups` also holds the validating constructors
(`matrix_element`, `permutation`, `table_element`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import NotInGroup


def _byte_width(max_value: int) -> int:
    return max(1, (max_value.bit_length() + 7) // 8)


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
    the read-only int64 array of the table, products[i, j] = i * j, and
    `inverse` the read-only column of inverse indices.  Compared and hashed by
    object identity, so elements of distinct tables never mix."""

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
        self.inverse = np.argmax(T == ident, axis=1)
        self.inverse.flags.writeable = False


@dataclass(frozen=True)
class Element:
    """One group element: family key, value tuple and, for a table element, the
    `MulTable` it indexes (left out of eq and hash: the family names it)."""

    family: tuple
    values: tuple[int, ...]
    table: MulTable | None = field(default=None, compare=False, repr=False)


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
