"""The named groups of the test suites, as group-spec dicts.

Each spec is the JSON a `--group` file holds, and the tests build every group
from it with `groups.group_from_spec` or `generators_from_spec`, the parser the
CLI uses.  The generator order fixes the element numbering, so a spec here is
never reordered.
"""

from __future__ import annotations


def cyclic(k: int) -> dict:
    """C_k from the k-cycle (0 1 ... k-1)."""
    return {"kind": "permutation", "degree": k, "generators": [[(i + 1) % k for i in range(k)]]}


def symmetric(k: int) -> dict:
    """S_k from the transposition (0 1) and the k-cycle (0 1 ... k-1)."""
    swap, cycle = [1, 0, *range(2, k)], [(i + 1) % k for i in range(k)]
    return {"kind": "permutation", "degree": k, "generators": [swap, cycle]}


def sl2(p: int) -> dict:
    """SL_2(p), p prime, from the elementary transvections."""
    transvections = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
    return {"kind": "matrix_mod_p", "p": p, "m": 2, "generators": transvections}


# the small groups every suite runs on, in the order of their fixtures
BENCH = {
    "s3": symmetric(3),
    # the rotation and a reflection of the square
    "d4": {"kind": "permutation", "degree": 4, "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]},
    # [[0, -1], [1, 0]] and [[1, 1], [1, -1]] in SL_2(3)
    "q8": {"kind": "matrix_mod_p", "p": 3, "m": 2,
           "generators": [[[0, 2], [1, 0]], [[1, 1], [1, 2]]]},
    # the 3-cycles (0 1 2) and (1 2 3)
    "a4": {"kind": "permutation", "degree": 4, "generators": [[1, 2, 0, 3], [0, 2, 3, 1]]},
    "s4": symmetric(4),
    "sl2_3": sl2(3),
    "sl2_5": sl2(5),
}

# SL_2(p^2) as 4x4 matrices mod p: a + b t (t^2 = v, v the least non-square
# mod p) is the block [[a, v b], [b, a]], and the generators are the four
# elementary transvections with offsets 1 and t.  SL_2(49) has v = 3.
SL2_49 = {"kind": "matrix_mod_p", "p": 7, "m": 4, "generators": [
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 3], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0], [1, 0, 0, 1]],
]}

# SL_2(9) by the same blocks, with v = 2 mod 3
SL2_9 = {"kind": "matrix_mod_p", "p": 3, "m": 4, "generators": [
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 2], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 2, 1, 0], [1, 0, 0, 1]],
]}

# the four transvections of SL_2(49), conjugated by the benchmark's seed-11 word
SL2_49_SEED11 = {"kind": "matrix_mod_p", "p": 7, "m": 4, "generators": [
    [[3, 4, 2, 0], [6, 3, 0, 2], [0, 6, 6, 3], [2, 0, 1, 6]],
    [[6, 1, 0, 6], [5, 6, 2, 0], [3, 6, 3, 6], [2, 3, 2, 3]],
    [[5, 6, 0, 6], [2, 5, 2, 0], [6, 0, 4, 1], [0, 6, 5, 4]],
    [[2, 1, 6, 0], [5, 2, 0, 6], [6, 2, 0, 6], [3, 6, 2, 0]],
]}

# a non-split torus of SL_2(149): 3 + 2 t with t^2 = 2 (non-square mod 149) has
# norm 9 - 2 * 4 = 1, and as the block [[3, 4], [2, 3]] it has order p + 1 = 150
SL2_149_TORUS = {"kind": "matrix_mod_p", "p": 149, "m": 2, "generators": [[[3, 4], [2, 3]]]}
