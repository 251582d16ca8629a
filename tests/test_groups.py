import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedwalk import catalog, elements
from signedwalk.elements import MatrixElement, MulTable, PermutationElement, TableElement
from signedwalk.errors import CapExceeded, MixedVariants, NotInGroup, NotInvertible, SizeCap
from signedwalk.groups import (
    ROW_TABLE_BOUND,
    GeneratorTree,
    RowArith,
    _unique,
    center_and_centralizer,
    close_generators,
    conjugacy_classes,
    element_order,
    generators_from_spec,
    group_from_spec,
)

from conftest import (
    BENCH_NAMES,
    CLASS_CASES,
    element_rows,
    group_rows,
    naive_close_generic,
    naive_close_matrix,
    naive_conjugacy_classes,
    naive_dense_table,
    naive_element_order,
)


def test_closure_s3_from_transposition_and_cycle():
    G = close_generators(
        [PermutationElement((1, 0, 2)), PermutationElement((1, 2, 0))]
    )
    assert G.order == 6


def test_closure_sl2_3_order_24():
    G = close_generators(
        [
            MatrixElement.from_rows([[1, 1], [0, 1]], 3),
            MatrixElement.from_rows([[0, -1], [1, 0]], 3),
        ]
    )
    # |SL_2(q)| = q (q^2 - 1)
    assert G.order == 3 * (9 - 1)


def test_closure_cyclic_from_order_5_element():
    G = close_generators(catalog.cyclic_generators(5))
    assert G.order == 5


def test_closure_cap():
    with pytest.raises(CapExceeded):
        close_generators(catalog.sl2_generators(5), cap=50)


def test_closure_cap_is_inclusive():
    gens = [PermutationElement((1, 0, 2)), PermutationElement((1, 2, 0))]
    assert close_generators(gens, cap=6).order == 6
    with pytest.raises(CapExceeded):
        close_generators(gens, cap=5)


def test_closure_mixed_variants():
    with pytest.raises(MixedVariants):
        close_generators(
            [PermutationElement((1, 0, 2)), MatrixElement.from_rows([[1, 1], [0, 1]], 3)]
        )


def test_identity_first_and_inverses(bench_groups):
    for G in bench_groups.values():
        assert G.element(0).is_identity()
        for i in range(G.order):
            assert G.mul(i, G.inv(i)) == 0


def test_element_order_examples(bench_groups):
    G5 = bench_groups["sl2_5"]
    assert element_order(G5, 0) == 1
    assert element_order(G5, MatrixElement.from_rows([[1, 1], [0, 1]], 5)) == 5
    G7 = close_generators(catalog.sl2_generators(7))
    minus_i = MatrixElement.from_rows([[-1, 0], [0, -1]], 7)
    assert element_order(G7, minus_i) == 2


def test_element_order_not_in_group(bench_groups):
    with pytest.raises(NotInGroup):
        element_order(bench_groups["s3"], PermutationElement((1, 0, 2, 3)))
    with pytest.raises(NotInGroup):
        element_order(bench_groups["s3"], 6)


# every variant; SL2(49) (117,600 elements) would make the scalar walk take minutes
@pytest.mark.parametrize(
    "name", [*BENCH_NAMES, "trivial", "d6_reflections", "sl2_7", "z6", "s6", "s7"]
)
def test_element_order_matches_power_walk(request, bench_groups, name):
    G = bench_groups[name] if name in bench_groups else request.getfixturevalue(name)
    for i in range(G.order):
        want = naive_element_order(G, i)
        assert element_order(G, i) == want
        assert element_order(G, G.element(i)) == want


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BENCH_NAMES), st.integers(0, 2**32 - 1))
def test_associativity_random_triples(bench_groups, name, seed):
    G = bench_groups[name]
    rng = np.random.default_rng(seed)
    for _ in range(10):
        a, b, c = (int(x) for x in rng.integers(0, G.order, size=3))
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_encoding_roundtrip(bench_groups):
    for G in bench_groups.values():
        for i in range(G.order):
            assert G.index_of(G.element(i)) == i


def test_conjugacy_classes_s3(bench_groups):
    cc = conjugacy_classes(bench_groups["s3"])
    assert sorted(cc.sizes) == [1, 2, 3]
    assert cc.sizes[0] == 1 and cc.representatives[0] == 0


def test_conjugacy_classes_q8(bench_groups):
    assert conjugacy_classes(bench_groups["q8"]).count == 5


def test_conjugacy_classes_abelian_singletons():
    G = close_generators(catalog.cyclic_generators(12))
    cc = conjugacy_classes(G)
    assert cc.count == 12 and set(cc.sizes) == {1}


def test_conjugacy_class_counting_invariants(bench_groups):
    for G in bench_groups.values():
        cc = conjugacy_classes(G)
        assert sum(cc.sizes) == G.order
        for size in cc.sizes:
            assert G.order % size == 0
        # |class(g)| * |C_G(g)| = |G|, brute-force conjugation and commuting cross-checks
        for cid, rep in enumerate(cc.representatives):
            orbit = {G.mul(G.mul(x, rep), G.inv(x)) for x in range(G.order)}
            assert len(orbit) == cc.sizes[cid]
            _, cent = center_and_centralizer(G, rep)
            assert cent == sum(G.mul(x, rep) == G.mul(rep, x) for x in range(G.order))
            assert cc.sizes[cid] * cent == G.order


def test_center_examples(bench_groups):
    center, cent_identity = center_and_centralizer(bench_groups["s3"], 0)
    assert center == (0,)
    assert cent_identity == 6
    G5 = bench_groups["sl2_5"]
    center5, _ = center_and_centralizer(G5, 0)
    assert len(center5) == 2  # +-identity
    minus_i = G5.index_of(MatrixElement.from_rows([[-1, 0], [0, -1]], 5))
    assert set(center5) == {0, minus_i}


def test_lagrange_for_all_elements(bench_groups):
    for G in bench_groups.values():
        for i in range(G.order):
            assert G.order % element_order(G, i) == 0


def test_group_spec_roundtrip(tmp_path):
    for name in ("s3", "sl2_5", "q8"):
        spec = catalog.group_spec(name)
        text = json.dumps(spec)
        G = group_from_spec(json.loads(text))
        assert G.order == catalog.named_group(name).order


def test_table_spec():
    rows = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    G = group_from_spec({"kind": "table", "size": 6, "table": rows})
    assert G.order == 6
    assert G.element(0).is_identity()
    cc = conjugacy_classes(G)
    assert cc.count == 6


def test_table_spec_with_generators():
    rows = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    G = group_from_spec({"kind": "table", "size": 6, "table": rows, "generators": [2]})
    assert G.order == 3


def test_unknown_spec_kind():
    with pytest.raises(ValueError):
        generators_from_spec({"kind": "octonion"})


def test_bfs_ordering_deterministic():
    a = close_generators(catalog.sl2_generators(5))
    b = close_generators(catalog.sl2_generators(5))
    assert [a.element(i).encode() for i in range(a.order)] == [
        b.element(i).encode() for i in range(b.order)
    ]


def test_large_matrix_group_no_dense_table(sl2_49):
    assert sl2_49.order == 49 * (49 * 49 - 1)
    # spot-check index arithmetic on the searchsorted path
    rng = np.random.default_rng(5)
    for _ in range(50):
        i, j = (int(x) for x in rng.integers(0, sl2_49.order, size=2))
        k = sl2_49.mul(i, j)
        gi, gj = sl2_49.element(i), sl2_49.element(j)
        assert sl2_49.element(k) == gi.mul(gj)


def test_hex_encodings_match_encoding(bench_groups):
    table = MulTable([[(i + j) % 6 for j in range(6)] for i in range(6)])
    unipotent_257 = close_generators([MatrixElement.from_rows([[1, 1], [0, 1]], 257)])
    groups = [
        bench_groups["sl2_5"],
        bench_groups["s4"],
        close_generators([TableElement(table, 1)]),
        unipotent_257,  # entries up to 256: two bytes each
    ]
    for G in groups:
        expected = [G.element(i).encode().hex() for i in range(G.order)]
        assert G.hex_encodings(range(G.order)) == expected
        assert G.hex_encodings([3, 0, 3]) == [expected[3], expected[0], expected[3]]
        assert G.hex_encodings(()) == []
    assert len(unipotent_257.element(0).encode()) == 8


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "sl2_5"])
def test_dense_table_matches_per_column_build(bench_groups, name):
    G = bench_groups[name]
    table = G.dense_table()
    assert table.dtype == np.int32
    assert np.array_equal(table, naive_dense_table(G))


def test_dense_table_s6_matches_per_column_build(s6):
    assert s6.order == 720
    assert np.array_equal(s6.dense_table(), naive_dense_table(s6))


def test_dense_table_with_self_inverse_generators():
    # D6 from two reflections of the hexagon: each multiplier is its own inverse
    G = close_generators(
        [PermutationElement((0, 5, 4, 3, 2, 1)), PermutationElement((1, 0, 5, 4, 3, 2))]
    )
    assert G.order == 12
    assert np.array_equal(G.dense_table(), naive_dense_table(G))


@pytest.mark.parametrize(
    "ident", [PermutationElement.identity(3), MatrixElement.identity(5, 2)]
)
def test_dense_table_of_trivial_group(ident):
    G = close_generators([ident])
    assert G.order == 1
    assert np.array_equal(G.dense_table(), [[0]])
    assert np.array_equal(G.dense_table(), naive_dense_table(G))


def _permutation_matrix(images, p):
    rows = [[int(images[i] == j) for j in range(len(images))] for i in range(len(images))]
    return MatrixElement.from_rows(rows, p)


@pytest.mark.parametrize("name", ["sl2_5", "z6", "s4", "s7", "sl2_49"])
def test_mul_many_with_aligned_index_array(request, bench_groups, name):
    G = bench_groups[name] if name in bench_groups else request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    idxs = rng.integers(0, G.order, size=300)
    js = rng.integers(0, G.order, size=300)
    pairwise = [G.mul(int(i), int(j)) for i, j in zip(idxs, js)]
    for k in range(20):
        i, j = int(idxs[k]), int(js[k])
        assert G.element(pairwise[k]) == G.element(i).mul(G.element(j))
    assert G.mul_many(idxs, js).tolist() == pairwise
    assert G.mul_many(idxs[:1], js[:1]).tolist() == pairwise[:1]
    j0 = int(js[0])
    assert G.mul_many(idxs, j0).tolist() == [G.mul(int(i), j0) for i in idxs]


# name -> (|G|, generators)
MATRIX_CLOSURE_CASES = {
    "sl2_5": (120, lambda: catalog.sl2_generators(5)),
    "sl2_7": (336, lambda: catalog.sl2_generators(7)),
    # SL_3(3): an elementary matrix and a 3-cycle permutation matrix
    "sl3_3": (
        5616,
        lambda: [
            MatrixElement.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3),
            _permutation_matrix([2, 0, 1], 3),
        ],
    ),
    # signed 5x5 permutation matrices mod 3, 2^5 * 5! elements (m > 4)
    "signed_perm5_mod3": (
        3840,
        lambda: [
            _permutation_matrix([1, 2, 3, 4, 0], 3),
            _permutation_matrix([1, 0, 2, 3, 4], 3),
            MatrixElement.from_rows(np.diag([2, 1, 1, 1, 1]).tolist(), 3),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(MATRIX_CLOSURE_CASES))
def test_matrix_closure_matches_naive_bfs(name):
    order, make_generators = MATRIX_CLOSURE_CASES[name]
    gens = make_generators()
    G = close_generators(gens)
    mats, inv = naive_close_matrix(gens)
    assert G.order == order
    assert np.array_equal(group_rows(G).reshape(mats.shape), mats)
    assert np.array_equal(G._inv, inv)


def _random_invertible(rng, p, m, count):
    out = []
    while len(out) < count:
        try:
            out.append(MatrixElement.from_rows(rng.integers(0, p, size=(m, m)).tolist(), p))
        except NotInvertible:
            pass
    return out


# (p, m, factors); the last two always compose: 2x2 mod 1031 has p^m =
# 1,062,961 > ROW_TABLE_BOUND, and 13 tables of 17^4 row codes exceed it in all
PRODUCT_CASES = [(p, m, 3) for m in (2, 3, 4) for p in (2, 3, 5, 7, 17)]
PRODUCT_CASES += [(1031, 2, 3), (17, 4, 13)]


# work 0 always composes; work 2^40 builds the tables wherever they fit the bound
@pytest.mark.parametrize("work", [0, 2**40])
@pytest.mark.parametrize("p, m, count", PRODUCT_CASES)
def test_right_mul_matches_matmul(p, m, count, work):
    rng = np.random.default_rng(100 * p + m)
    left, factors = _random_invertible(rng, p, m, 40), _random_invertible(rng, p, m, count)
    arith = RowArith(left[0])
    assert (arith._digits is not None) == (p**m <= ROW_TABLE_BOUND)
    times = arith.right_mul(arith.rows(factors), work)
    tables = arith._digits is not None and count * p**m <= min(ROW_TABLE_BOUND, work)
    assert times.__name__ == ("gathered" if tables else "composed")
    a = element_rows(left).reshape(-1, m, m)
    b = element_rows(factors).reshape(-1, m, m)
    pick = rng.integers(0, len(factors), size=len(left))
    for k, want in [(k, a @ b[k] % p) for k in range(len(factors))] + [(pick, a @ b[pick] % p)]:
        got = times(arith.rows(left), k)
        assert np.array_equal(arith.entries(got), want.reshape(len(left), -1))
        want_elements = [MatrixElement(p, m, tuple(w.ravel().tolist())) for w in want]
        assert arith.encode(got).tobytes() == b"".join(g.encode() for g in want_elements)
        assert np.array_equal(arith.keys(got), arith.keys(arith.rows(want_elements)))
        if arith.keys(got).dtype.kind != "V":  # the base-p code of the entries
            assert arith.keys(got).tolist() == [
                sum(e * p ** (m * m - 1 - i) for i, e in enumerate(g.entries))
                for g in want_elements
            ]
    word, want = rng.integers(0, len(factors), size=(len(left), 3)), a
    for step in word.T:  # a row of picks per row: left * factors[w0] * factors[w1] * ...
        want = want @ b[step] % p
    assert np.array_equal(arith.entries(times(arith.rows(left), word)), want.reshape(len(left), -1))
    aligned = arith.compose(arith.rows(left), arith.rows([factors[k] for k in pick]))
    assert np.array_equal(arith.entries(aligned), (a @ b[pick] % p).reshape(len(left), -1))


# <diag(a, a^-1), quarter turn> (+ identity block), a of order 5 mod 1031 (2 is
# a primitive root) or 8 mod 17 (3 is): 20 or 16 elements, so no layer reaches
# p^m rows and closure composes, on entries (p^m > ROW_TABLE_BOUND) or row codes
@pytest.mark.parametrize("p, m, a, order", [(1031, 2, pow(2, 206, 1031), 20), (17, 4, 9, 16)])
def test_small_closure_composes_and_matches_naive_bfs(p, m, a, order):
    def block(top):
        return MatrixElement.from_rows(
            [[top[i][j] if i < 2 and j < 2 else int(i == j) for j in range(m)] for i in range(m)], p
        )

    gens = [block([[a, 0], [0, pow(a, -1, p)]]), block([[0, 1], [-1, 0]])]
    G = close_generators(gens)
    assert (G._arith._digits is None) == (p**m > ROW_TABLE_BOUND)
    if p ** (m * m) < 2**63:
        mats, inv = naive_close_matrix(gens)
    else:  # byte keys; naive_close_matrix's int64 codes would wrap
        elements, inv = naive_close_generic(gens)
        mats = element_rows(elements).reshape(-1, m, m)
    assert G.order == order
    assert np.array_equal(group_rows(G).reshape(mats.shape), mats)
    assert np.array_equal(G._inv, inv)
    idxs = np.arange(G.order)
    for j in range(G.order):
        assert np.array_equal(G.mul_many(idxs, j), G.mul_many(idxs, np.full(G.order, j)))


def test_matrix_closure_matches_naive_bfs_on_benchmark_sl2_49(sl2_49_seed11_generators):
    G = close_generators(sl2_49_seed11_generators)
    mats, inv = naive_close_matrix(sl2_49_seed11_generators)
    assert G.order == 117600
    assert np.array_equal(group_rows(G).reshape(mats.shape), mats)
    assert np.array_equal(G._inv, inv)


@pytest.mark.parametrize("name", CLASS_CASES)
def test_conjugacy_classes_match_naive_bfs(class_case, name):
    G, naive = class_case(name)
    cc = conjugacy_classes(G)
    assert cc.class_of.dtype == naive.class_of.dtype
    assert np.array_equal(cc.class_of, naive.class_of)
    assert cc.representatives == naive.representatives
    assert cc.sizes == naive.sizes


def test_conjugacy_classes_of_a_long_conjugation_cycle():
    # D_2503 as affine maps x -> +-x + b mod 2503: conjugating by the translation
    # moves the 2503 reflections along one cycle, so the labels must cross it in
    # a few rounds (|G| = 5006)
    p = 2503
    G = close_generators(
        [MatrixElement.from_rows([[1, 1], [0, 1]], p), MatrixElement.from_rows([[p - 1, 0], [0, 1]], p)]
    )
    cc, naive = conjugacy_classes(G), naive_conjugacy_classes(G)
    assert np.array_equal(cc.class_of, naive.class_of)
    assert cc.representatives == naive.representatives and cc.sizes == naive.sizes
    assert sorted(cc.sizes) == [1] + [2] * ((p - 1) // 2) + [p]


def _dihedral_2503():
    """D_2503 as affine maps x -> +-x + b mod 2503 (|G| = 5006, 1252 BFS layers)."""
    p = 2503
    return [
        MatrixElement.from_rows([[1, 1], [0, 1]], p),
        MatrixElement.from_rows([[p - 1, 0], [0, 1]], p),
    ]


def _affine_mod_16():
    """x -> a x + b on Z/16 with a odd (|G| = 128) as permutations of degree 16."""
    return [
        PermutationElement(tuple((x + 1) % 16 for x in range(16))),
        PermutationElement(tuple(3 * x % 16 for x in range(16))),
        PermutationElement(tuple(-x % 16 for x in range(16))),
    ]


def _dihedral_degree_300():
    """D_300 on 300 points (|G| = 600): entries above 255 take two bytes each."""
    return [
        PermutationElement(tuple((x + 1) % 300 for x in range(300))),
        PermutationElement(tuple(-x % 300 for x in range(300))),
    ]


def _s4_table():
    """S4 as a multiplication table under a shuffled labelling, so neither the
    identity nor the generators sit at small indices."""
    perms = [PermutationElement(p) for p in itertools.permutations(range(4))]
    order = np.random.default_rng(7).permutation(len(perms)).tolist()
    perms = [perms[k] for k in order]
    index = {g: i for i, g in enumerate(perms)}
    table = MulTable([[index[a.mul(b)] for b in perms] for a in perms])
    gens = (PermutationElement((1, 0, 2, 3)), PermutationElement((1, 2, 3, 0)))
    return [TableElement(table, index[g]) for g in gens]


def _s8():
    return [
        PermutationElement((1, 0, 2, 3, 4, 5, 6, 7)),
        PermutationElement((1, 2, 3, 4, 5, 6, 7, 0)),
    ]


# name -> (|G|, generators, keys are encoded bytes)
GENERIC_CLOSURE_CASES = {
    "s8": (40320, _s8, False),
    "dihedral_2503": (5006, _dihedral_2503, False),
    "affine_mod_16": (128, _affine_mod_16, True),
    "dihedral_degree_300": (600, _dihedral_degree_300, True),
    "s4_table": (24, _s4_table, False),
}


@pytest.mark.parametrize("name", sorted(GENERIC_CLOSURE_CASES))
def test_closure_matches_naive_generic_bfs(name):
    order, make_generators, byte_keys = GENERIC_CLOSURE_CASES[name]
    gens = make_generators()
    G = close_generators(gens, cap=order)  # no element may be found twice
    elements, inv = naive_close_generic(gens)
    assert G.order == order
    assert (G._sorted_keys.dtype.kind == "V") == byte_keys
    assert np.array_equal(group_rows(G), element_rows(elements))
    assert np.array_equal(G._inv, inv)
    assert G.generator_indices == tuple(elements.index(g) for g in gens)


@pytest.mark.parametrize("name", CLASS_CASES + sorted(GENERIC_CLOSURE_CASES))
def test_generator_tree_composes_to_columns(class_case, name):
    if name in GENERIC_CLOSURE_CASES:
        G = close_generators(GENERIC_CLOSURE_CASES[name][1]())
    else:
        G, _ = class_case(name)
    tree = G.tree
    n = G.order
    idxs = np.arange(n)
    gens = set(G.generator_indices)
    assert set(tree.mults) == gens | {G.inv(t) for t in gens}
    assert tree.cols.dtype == np.int32
    for k, t in enumerate(tree.mults):
        assert np.array_equal(tree.cols[k], G.mul_many(idxs, t))
    assert np.all(tree.parent[1:] < idxs[1:])
    assert np.array_equal(tree.cols[tree.via[1:], tree.parent[1:]], idxs[1:])
    # layer k >= 1 is [starts[k], starts[k + 1]), its parents all in layer k - 1
    starts = np.array(tree.starts)
    assert starts[0] == 0 and starts[-1] == n and np.all(np.diff(starts) > 0)
    layer = np.searchsorted(starts, idxs, side="right") - 1
    assert np.array_equal(layer[tree.parent[1:]], layer[1:] - 1)
    rng = np.random.default_rng(11)
    for x in [0, n - 1] + rng.integers(0, n, size=6).tolist():
        assert np.array_equal(G.right_column(x), G.mul_many(idxs, x))


# name -> (generators, keys are encoded bytes)
KEY_FORM_CASES = {
    "matrix": (lambda: catalog.sl2_generators(7), False),
    "wide_matrix": (lambda: [_wide_minus_identity(), _permutation_matrix([1, 0, 2, 3], 17)], True),
    "perm": (_s8, False),
    "wide_perm": (_dihedral_degree_300, True),
    "table": (_s4_table, False),
}


@pytest.mark.parametrize("name", sorted(KEY_FORM_CASES))
def test_row_arith_decode_inverts_keys(name):
    make_generators, byte_keys = KEY_FORM_CASES[name]
    gens = make_generators()
    arith = RowArith(gens[0])
    elements = naive_close_generic(gens)[0]
    rows = arith.rows(elements)
    assert np.array_equal(arith.entries(rows), element_rows(elements))
    keys = arith.keys(rows)
    assert (keys.dtype.kind == "V") == byte_keys
    by_encoding = sorted(range(len(elements)), key=lambda i: elements[i].encode())
    assert np.argsort(keys, kind="stable").tolist() == by_encoding
    decoded = arith.decode(keys)
    assert decoded.dtype == np.int64
    assert np.array_equal(decoded, rows)
    assert np.array_equal(arith.decode(keys[:0]), rows[:0])


@pytest.mark.parametrize("name", ["matrix", "wide_perm"])
def test_unique_matches_numpy(name):
    gens = KEY_FORM_CASES[name][0]()
    arith = RowArith(gens[0])
    rows = arith.rows(naive_close_generic(gens)[0])
    keys = arith.keys(rows[np.random.default_rng(2).integers(0, len(rows), size=3 * len(rows))])
    uniq, first, inverse = _unique(keys)
    want = np.unique(keys, return_index=True, return_inverse=True)
    assert np.array_equal(uniq, want[0]) and np.array_equal(first, want[1])
    assert inverse.dtype == np.int32 and np.array_equal(inverse, want[2])


def test_closure_returns_a_complete_group(s7):
    G = close_generators(s7.element(i) for i in s7.generator_indices)
    assert G.generator_indices == s7.generator_indices
    assert isinstance(G.tree, GeneratorTree) and G.tree.cols.shape[1] == G.order
    assert G._inv.shape == (G.order,)
    assert np.array_equal(G.mul_many(np.arange(G.order), G._inv), np.zeros(G.order))
    state = dict(vars(G))
    G.right_column(G.order - 1)
    G.mul_many(np.arange(10), 3)
    G.hex_encodings([0, 1])
    conjugacy_classes(G)
    assert vars(G).keys() == state.keys()
    assert all(vars(G)[key] is value for key, value in state.items())


# every fixture group but the seed-11 SL2(49), whose element-by-element BFS
# would take minutes (its numbering is checked against `naive_close_matrix`)
FIXTURE_CLOSURE_CASES = [
    name for name in dict.fromkeys(CLASS_CASES + BENCH_NAMES) if name != "sl2_49_seed11"
]


@pytest.mark.parametrize("name", FIXTURE_CLOSURE_CASES)
def test_fixture_closure_matches_naive_generic_bfs(request, bench_groups, name):
    G = bench_groups[name] if name in bench_groups else request.getfixturevalue(name)
    elements, inv = naive_close_generic([G.element(i) for i in G.generator_indices])
    assert np.array_equal(group_rows(G), element_rows(elements))
    assert np.array_equal(G._inv, inv)


def _wide_minus_identity():
    """-I as a 4 x 4 matrix mod 17: 17^16 > 2^63, so keys are encoded bytes."""
    return MatrixElement.from_rows(np.diag([16] * 4).tolist(), 17)


def test_small_group_of_wide_matrices_closes():
    minus = _wide_minus_identity()
    G = close_generators([minus])
    assert G.order == 2 and G._sorted_keys.dtype.kind == "V"
    assert G.hex_encodings([0, 1]) == [
        MatrixElement.identity(17, 4).encode().hex(), minus.encode().hex()
    ]
    assert G.index_of(minus) == 1 and G.inv(1) == 1


def test_closure_refuses_a_non_associative_table(monkeypatch):
    # a latin square with identity 0 that is not associative (a loop of order 5)
    rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    with pytest.raises(ValueError, match="not associative"):
        MulTable(rows)
    # past the table's own check its BFS layers never close, so without the
    # inverse check the closure runs on until the element cap
    monkeypatch.setattr(elements, "_check_associative", lambda rows, identity: None)
    loop = MulTable(rows)
    with pytest.raises(NotInGroup, match="do not close to a group"):
        close_generators([TableElement(loop, 1), TableElement(loop, 2)])


def _s4_table_without_transpositions():
    transposition, four_cycle = _s4_table()
    return [four_cycle], transposition


def test_matrix_products_that_overflow_int64_are_refused():
    # 2 * (p - 1)^2 >= 2^63 for the Mersenne prime p = 2^61 - 1
    with pytest.raises(SizeCap, match="overflow int64"):
        close_generators([MatrixElement.from_rows([[1, 1], [0, 1]], 2**61 - 1)])


# name -> () -> (generators, an element of their family outside the group)
NON_MEMBER_CASES = {
    "matrix": lambda: (
        [MatrixElement.from_rows([[1, 1], [0, 1]], 5)],
        MatrixElement.from_rows([[1, 0], [1, 1]], 5),
    ),
    "wide_matrix": lambda: (
        [_wide_minus_identity()],
        MatrixElement.from_rows(np.diag([2, 9, 1, 1]).tolist(), 17),
    ),
    "perm": lambda: ([PermutationElement((1, 2, 0))], PermutationElement((1, 0, 2))),
    "wide_perm": lambda: (
        _dihedral_degree_300(),
        PermutationElement((1, 0) + tuple(range(2, 300))),
    ),
    "table": _s4_table_without_transpositions,
}


@pytest.mark.parametrize("name", sorted(NON_MEMBER_CASES))
def test_index_of_rejects_non_members(name):
    gens, outsider = NON_MEMBER_CASES[name]()
    G = close_generators(gens)
    assert G.index_of(gens[0]) == G.generator_indices[0]
    with pytest.raises(NotInGroup):
        G.index_of(outsider)
    with pytest.raises(NotInGroup):  # another family altogether
        G.index_of(TableElement(MulTable([[0]]), 0))
