import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signedwalk.elements import MulTable, same_family
from signedwalk.errors import NotInGroup, NotInvertible
from signedwalk.groups import (
    RowArith,
    matrix_element,
    matrix_from_rows,
    permutation,
    table_element,
)

from conftest import (
    BENCH_NAMES,
    LOOP_GENERATORS,
    decode_matrix,
    decode_permutation,
    decode_table,
    matrix_rows,
    naive_det_mod,
    ref_inv,
    ref_mul,
    ref_order,
)


def _encoded(g) -> bytes:
    arith = RowArith(g)
    return arith.encode(arith.rows([g])).tobytes()


def _random_invertible(seed: int, count: int = 6) -> list:
    rng = np.random.default_rng(seed)
    mats = []
    while len(mats) < count:
        try:
            mats.append(matrix_from_rows(rng.integers(0, 7, size=(3, 3)).tolist(), 7))
        except NotInvertible:
            pass
    return mats


def test_matrix_roundtrip_and_reduction():
    g = matrix_from_rows([[1, -1], [0, 1]], 5)
    assert g.values == (1, 4, 0, 1)
    assert decode_matrix(_encoded(g), 5, 2) == g


def test_matrix_singular_rejected():
    with pytest.raises(NotInvertible):
        matrix_from_rows([[1, 2], [2, 4]], 5)


@pytest.mark.parametrize(
    "p, m, entries, error",
    [(5, 2, (1, 2, 2, 4), NotInvertible), (5, 2, (1, 5, 0, 1), ValueError),
     (5, 2, (1, -1, 0, 1), ValueError), (5, 2, (1, 0, 0), ValueError)],
)
def test_public_construction_still_validates(p, m, entries, error):
    with pytest.raises(error):
        matrix_element(p, m, entries)


def test_product_skips_validation_and_equals_the_checked_matrix(monkeypatch):
    mats = _random_invertible(4)
    arith = RowArith(mats[0])
    rows = arith.rows(mats)
    checked = {(a, b): matrix_element(7, 3, ref_mul(a, b).values) for a in mats for b in mats}
    validated = []
    monkeypatch.setattr(RowArith, "inverse", lambda self, rows: validated.append(rows))
    for a, ra in zip(mats, rows):
        for b, rb in zip(mats, rows):
            prod = arith.element(arith.compose(ra[None], rb[None])[0])
            want = (np.array(matrix_rows(a)) @ np.array(matrix_rows(b)) % 7).ravel().tolist()
            assert prod.values == tuple(want) and type(prod.values[0]) is int
            assert prod == checked[a, b] and hash(prod) == hash(checked[a, b])
    assert not validated  # a decoded product is never checked for invertibility again


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
            matrix_element(p, m, entries)
        except NotInvertible as exc:
            assert singular and str(exc) == "matrix is singular mod p"
            refused += 1
        else:
            assert not singular
    assert 0 < refused < 200


def test_inverse_skips_validation():
    mats = _random_invertible(5)
    arith = RowArith(mats[0])
    inverses = arith.inverse(arith.rows(mats))
    for g, row in zip(mats, inverses):
        inv = arith.element(row)
        assert type(inv.values[0]) is int and inv == ref_inv(g)
        checked_inv = matrix_element(7, 3, inv.values)
        assert inv == checked_inv and hash(inv) == hash(checked_inv)


def _assert_inverse_pairs(mats) -> None:
    """RowArith's batched inverses against the reference, both sides a unit."""
    arith = RowArith(mats[0])
    rows = arith.rows(mats)
    inv = arith.inverse(rows)
    assert arith.is_identity(arith.compose(rows, inv)).all()
    assert arith.is_identity(arith.compose(inv, rows)).all()
    assert [arith.element(r) for r in inv] == [ref_inv(g) for g in mats]


def test_matrix_inverse_small_and_large():
    for m, p in [(2, 7), (3, 5), (4, 7), (5, 11)]:
        rows = [[(i * m + j + 1) % p for j in range(m)] for i in range(m)]
        rows = [[1 if i == j else rows[i][j] if i < j else 0 for j in range(m)] for i in range(m)]
        _assert_inverse_pairs([matrix_from_rows(rows, p)])


@pytest.mark.parametrize("p", [2, 3, 7, 257])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_matrix_inverse_of_random_invertible_matrices(m, p):
    rng = np.random.default_rng(1000 * m + p)
    found = []
    while len(found) < 10:
        rows = rng.integers(0, p, size=(m, m)).tolist()
        try:
            found.append(matrix_from_rows(rows, p))
        except NotInvertible:
            continue
    _assert_inverse_pairs(found)


def test_matrix_order_unipotent():
    g = matrix_from_rows([[1, 1], [0, 1]], 5)
    arith = RowArith(g)
    assert arith.orders(arith.rows([g])) == [5]


def test_mixed_variants_rejected():
    a = matrix_from_rows([[1, 1], [0, 1]], 5)
    b = matrix_from_rows([[1, 1], [0, 1]], 7)
    with pytest.raises(NotInGroup, match="element family does not match group"):
        RowArith(a).rows([a, b])
    with pytest.raises(NotInGroup, match="mixed element families"):
        same_family([a, b])


@given(st.permutations(list(range(6))))
def test_permutation_roundtrip_and_inverse(images):
    g = permutation(images)
    assert decode_permutation(_encoded(g), 6) == g
    arith = RowArith(g)
    row = arith.rows([g])
    assert arith.is_identity(arith.compose(row, arith.inverse(row))).all()
    # order by cycle type equals order by iteration
    assert arith.orders(row) == [ref_order(g)]


def test_permutation_composition_convention():
    # (f * g)(x) = f(g(x))
    f = permutation((1, 0, 2))
    g = permutation((0, 2, 1))
    arith = RowArith(f)
    assert arith.element(arith.compose(arith.rows([f]), arith.rows([g]))[0]).values == (1, 2, 0)


def test_table_identity_and_inverse():
    rows = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    t = MulTable(rows)
    assert t.identity_index == 0
    g = table_element(t, 1)
    arith = RowArith(g)
    row = arith.rows([g])
    assert arith.orders(row) == [4]
    assert arith.is_identity(arith.compose(row, arith.inverse(row))).all()
    assert decode_table(_encoded(g), t) == g


def test_table_keeps_one_read_only_array():
    rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    t = MulTable(rows)
    assert t.products.dtype == np.int64 and t.products.tolist() == rows
    assert t.inverse.tolist() == [0, 4, 3, 2, 1]
    for array in (t.products, t.inverse):
        with pytest.raises(ValueError):
            array[0] = 1


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
