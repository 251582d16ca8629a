"""Ready-made generator sets for the groups used throughout the test suites.

Each helper returns plain generator lists (and a matching spec dict) so the
same constructions can be enumerated in-process or written to group files.
"""

from __future__ import annotations

from .elements import MatrixElement, PermutationElement
from .errors import ConsistencyFailure
from .groups import FiniteGroup, close_generators


def cyclic_generators(k: int) -> list[PermutationElement]:
    """A k-cycle, generating the cyclic group of order k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [PermutationElement(tuple((i + 1) % k for i in range(k)))]


def symmetric_generators(k: int) -> list[PermutationElement]:
    """Transposition (0 1) and the k-cycle, generating S_k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    swap = [1, 0] + list(range(2, k))
    return [
        PermutationElement(tuple(swap)),
        PermutationElement(tuple((i + 1) % k for i in range(k))),
    ]


def alternating4_generators() -> list[PermutationElement]:
    return [
        PermutationElement((1, 2, 0, 3)),  # (0 1 2)
        PermutationElement((0, 2, 3, 1)),  # (1 2 3)
    ]


def dihedral4_generators() -> list[PermutationElement]:
    """Rotation and reflection of the square: dihedral group of order 8."""
    return [
        PermutationElement((1, 2, 3, 0)),
        PermutationElement((3, 2, 1, 0)),
    ]


def quaternion_generators() -> list[MatrixElement]:
    """Quaternion group of order 8 inside SL_2(3)."""
    return [
        MatrixElement.from_rows([[0, -1], [1, 0]], 3),
        MatrixElement.from_rows([[1, 1], [1, -1]], 3),
    ]


def sl2_generators(p: int) -> list[MatrixElement]:
    """Elementary transvections generating SL_2(p), p prime."""
    return [
        MatrixElement.from_rows([[1, 1], [0, 1]], p),
        MatrixElement.from_rows([[1, 0], [1, 1]], p),
    ]


def least_nonsquare(p: int) -> int:
    squares = {x * x % p for x in range(p)}
    for v in range(2, p):
        if v not in squares:
            return v
    raise ValueError("no non-square found (p must be an odd prime)")


def sl2_prime_squared_generators(p: int) -> list[MatrixElement]:
    """SL_2(p^2) realized as 4x4 matrices over Z/p.

    The quadratic extension element a + b*t (t^2 = v, v a non-square mod p)
    embeds as the 2x2 block [[a, v*b], [b, a]]; each 2x2 matrix over the
    extension becomes a 4x4 matrix of such blocks.  The four elementary
    transvections with offsets 1 and t generate the whole group.
    """
    v = least_nonsquare(p)

    def block(a: int, b: int) -> list[list[int]]:
        return [[a % p, v * b % p], [b % p, a % p]]

    def embed(entries_2x2) -> MatrixElement:
        rows = [[0] * 4 for _ in range(4)]
        for bi in range(2):
            for bj in range(2):
                blk = block(*entries_2x2[bi][bj])
                for r in range(2):
                    for c in range(2):
                        rows[2 * bi + r][2 * bj + c] = blk[r][c]
        return MatrixElement.from_rows(rows, p)

    one, t, zero = (1, 0), (0, 1), (0, 0)
    return [
        embed([[one, one], [zero, one]]),
        embed([[one, t], [zero, one]]),
        embed([[one, zero], [one, one]]),
        embed([[one, zero], [t, one]]),
    ]


def nonsplit_torus_generator(p: int) -> MatrixElement:
    """An element of SL_2(p) of order exactly p + 1 (deterministic scan)."""
    v = least_nonsquare(p)
    for b in range(1, p):
        rhs = (1 + v * b * b) % p
        for a in range(p):
            if a * a % p != rhs:
                continue
            g = MatrixElement(p, 2, (a, v * b % p, b % p, a))
            if g.order() == p + 1:
                return g
    raise ConsistencyFailure(f"no order-{p + 1} torus element found in SL_2({p})")


_NAMED = {
    "s3": lambda: symmetric_generators(3),
    "s4": lambda: symmetric_generators(4),
    "a4": alternating4_generators,
    "d4": dihedral4_generators,
    "q8": quaternion_generators,
    "sl2_3": lambda: sl2_generators(3),
    "sl2_5": lambda: sl2_generators(5),
}


def named_generators(name: str):
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(f"unknown named group {name!r}") from None


def named_group(name: str) -> FiniteGroup:
    return close_generators(named_generators(name))


def spec_from_generators(gens) -> dict:
    """Group-spec dict (the on-disk JSON contract) for a generator list."""
    first = gens[0]
    if isinstance(first, MatrixElement):
        return {
            "kind": "matrix_mod_p",
            "p": first.p,
            "m": first.m,
            "generators": [g.rows() for g in gens],
        }
    return {
        "kind": "permutation",
        "degree": first.degree,
        "generators": [list(g.images) for g in gens],
    }


def group_spec(name: str) -> dict:
    return spec_from_generators(named_generators(name))
