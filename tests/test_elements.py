import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signedwalk.elements import (
    MatrixElement,
    MulTable,
    PermutationElement,
    TableElement,
    same_family,
)
from signedwalk.errors import NotInGroup, NotInvertible

from conftest import (
    BENCH_NAMES,
    LOOP_GENERATORS,
    decode_matrix,
    decode_permutation,
    decode_table,
    naive_det_mod,
)


def test_matrix_roundtrip_and_reduction():
    g = MatrixElement.from_rows([[1, -1], [0, 1]], 5)
    assert g.entries == (1, 4, 0, 1)
    assert decode_matrix(g.encode(), 5, 2) == g


def test_matrix_singular_rejected():
    with pytest.raises(NotInvertible):
        MatrixElement.from_rows([[1, 2], [2, 4]], 5)


@pytest.mark.parametrize(
    "p, m, entries, error",
    [(5, 2, (1, 2, 2, 4), NotInvertible), (5, 2, (1, 5, 0, 1), ValueError),
     (5, 2, (1, -1, 0, 1), ValueError), (5, 2, (1, 0, 0), ValueError)],
)
def test_public_construction_still_validates(p, m, entries, error):
    with pytest.raises(error):
        MatrixElement(p, m, entries)


def test_product_skips_validation_and_equals_the_checked_matrix(monkeypatch):
    rng = np.random.default_rng(4)
    mats = []
    while len(mats) < 6:
        try:
            mats.append(MatrixElement.from_rows(rng.integers(0, 7, size=(3, 3)).tolist(), 7))
        except NotInvertible:
            pass
    checked = []
    monkeypatch.setattr(MatrixElement, "__post_init__", lambda self: checked.append(self))
    for a in mats:
        for b in mats:
            prod = a.mul(b)
            want = (np.array(a.rows()) @ np.array(b.rows()) % 7).ravel().tolist()
            checked_prod = MatrixElement(7, 3, tuple(want))
            assert prod.entries == tuple(want) and isinstance(prod.entries[0], int)
            assert prod == checked_prod and hash(prod) == hash(checked_prod)
    assert len(checked) == len(mats) ** 2  # one per explicit construction, none per product


@pytest.mark.parametrize("p", [2, 3, 7, 257])
def test_matrix_refused_exactly_when_the_determinant_is_zero(p):
    rng = np.random.default_rng(p)
    refused = 0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        # sparse draws, so that singular matrices turn up for large p too
        entries = tuple((rng.integers(0, p, size=m * m) * (rng.random(m * m) < 0.6)).tolist())
        singular = naive_det_mod(entries, m, p) == 0
        try:
            MatrixElement(p, m, entries)
        except NotInvertible as exc:
            assert singular and str(exc) == "matrix is singular mod p"
            refused += 1
        else:
            assert not singular
    assert 0 < refused < 200


def test_inverse_skips_validation(monkeypatch):
    rng = np.random.default_rng(5)
    mats = []
    while len(mats) < 6:
        try:
            mats.append(MatrixElement.from_rows(rng.integers(0, 7, size=(3, 3)).tolist(), 7))
        except NotInvertible:
            pass
    checked = []
    monkeypatch.setattr(MatrixElement, "__post_init__", lambda self: checked.append(self))
    for g in mats:
        inv = g.inv()
        assert isinstance(inv.entries[0], int) and g.mul(inv).is_identity()
        checked_inv = MatrixElement(7, 3, inv.entries)
        assert inv == checked_inv and hash(inv) == hash(checked_inv)
    assert len(checked) == len(mats)  # one per explicit construction, none per inverse


def test_matrix_inverse_small_and_large():
    for m, p in [(2, 7), (3, 5), (4, 7), (5, 11)]:
        rows = [[(i * m + j + 1) % p for j in range(m)] for i in range(m)]
        rows = [[1 if i == j else rows[i][j] if i < j else 0 for j in range(m)] for i in range(m)]
        g = MatrixElement.from_rows(rows, p)
        assert g.mul(g.inv()).is_identity()
        assert g.inv().mul(g).is_identity()


@pytest.mark.parametrize("p", [2, 3, 7, 257])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_matrix_inverse_of_random_invertible_matrices(m, p):
    rng = np.random.default_rng(1000 * m + p)
    found = 0
    while found < 10:
        rows = rng.integers(0, p, size=(m, m)).tolist()
        try:
            g = MatrixElement.from_rows(rows, p)
        except NotInvertible:
            continue
        found += 1
        assert g.mul(g.inv()).is_identity()
        assert g.inv().mul(g).is_identity()


def test_matrix_order_unipotent():
    g = MatrixElement.from_rows([[1, 1], [0, 1]], 5)
    assert g.order() == 5


def test_mixed_variants_rejected():
    a = MatrixElement.from_rows([[1, 1], [0, 1]], 5)
    b = MatrixElement.from_rows([[1, 1], [0, 1]], 7)
    with pytest.raises(NotInGroup, match="matrix multiplication across different families"):
        a.mul(b)
    with pytest.raises(NotInGroup, match="mixed element families"):
        same_family([a, b])


@given(st.permutations(list(range(6))))
def test_permutation_roundtrip_and_inverse(images):
    g = PermutationElement(tuple(images))
    assert decode_permutation(g.encode(), 6) == g
    assert g.mul(g.inv()).is_identity()
    # order computed by cycle type equals order by iteration
    k, cur = 1, g
    while not cur.is_identity():
        cur = cur.mul(g)
        k += 1
    assert g.order() == k


def test_permutation_composition_convention():
    # (f * g)(x) = f(g(x))
    f = PermutationElement((1, 0, 2))
    g = PermutationElement((0, 2, 1))
    assert f.mul(g).images == (1, 2, 0)


def test_table_identity_and_inverse():
    rows = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    t = MulTable(rows)
    assert t.identity_index == 0
    g = TableElement(t, 1)
    assert g.order() == 4
    assert g.mul(g.inv()).is_identity()
    assert decode_table(g.encode(), t) == g


def test_table_keeps_one_read_only_array():
    rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    t = MulTable(rows)
    assert t.products.dtype == np.int64 and t.products.tolist() == rows
    with pytest.raises(ValueError):
        t.products[0, 0] = 1
    for i in range(5):
        for j in range(5):
            assert type(t.mul(i, j)) is int and t.mul(i, j) == rows[i][j]


def _z2_times(loop):
    """Z/2 x loop, (a, l) at index a + 2 l: its first greedy generator (1, e)
    is associative with everything, so only a later generator fails."""
    return [
        [(a ^ b) + 2 * loop[l][m] for m in range(len(loop)) for b in range(2)]
        for l in range(len(loop))
        for a in range(2)
    ]


@pytest.mark.parametrize("name", [*sorted(LOOP_GENERATORS), "Z2xL1"])
def test_table_rejects_non_associative_loops(name):
    rows = _z2_times(LOOP_GENERATORS["L1"][0]) if name == "Z2xL1" else LOOP_GENERATORS[name][0]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not associative"):
        MulTable(rows)
    assert time.perf_counter() - start < 1.0


def test_table_accepts_group_tables(bench_groups, s6):
    # the multiplication table of every enumerated group, and its transpose
    # (the opposite group), relabelled so that the identity is not index 0
    for G in [*(bench_groups[name] for name in BENCH_NAMES), s6]:
        table = G.dense_table()
        shift = np.roll(np.arange(G.order), 1)  # index i -> i + 1 mod |G|
        for T in (table, table.T):
            relabelled = np.empty_like(T)
            relabelled[np.ix_(shift, shift)] = shift[T]
            assert MulTable(relabelled.tolist()).identity_index == shift[0]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "square list of int lists"),
        ((0, 1), "square list of int lists"),
        ([[0, 1], [1]], "square list of int lists"),
        ([[0, 1], [1, 0], [0, 1]], "square list of int lists"),
        ([[0, 1.0], [1, 0]], "square list of int lists"),
        ([[0, "1"], [1, 0]], "square list of int lists"),
        ([[0, np.int64(1)], [1, 0]], "square list of int lists"),
        ([[[0]]], "square list of int lists"),
        ([[0, 2], [2, 0]], "rows must be permutations"),
        ([[0, -1], [1, 0]], "rows must be permutations"),
        ([[0, 2**70], [1, 0]], "rows must be permutations"),
        ([[0, 1], [0, 1]], "columns must be permutations"),
        ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "no two-sided identity"),
    ],
)
def test_table_rejections_name_the_broken_rule(rows, message):
    with pytest.raises(ValueError, match=message):
        MulTable(rows)


def test_table_rejects_non_latin():
    with pytest.raises(ValueError):
        MulTable([[0, 0], [1, 1]])
    # identity does not have to sit at index 0
    assert MulTable([[1, 0], [0, 1]]).identity_index == 1
    # latin square without a two-sided identity
    with pytest.raises(ValueError):
        MulTable([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
