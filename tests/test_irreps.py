import numpy as np
import pytest

from signedwalk import catalog
from signedwalk.chartable import dixon_character_table
from signedwalk.errors import SizeCap
from signedwalk.groups import close_generators
from signedwalk.irreps import (
    _average_hermitian,
    _conjugation_mean,
    _tabulate,
    decompose_regular,
)

from conftest import left_translation_rows, naive_average_hermitian, naive_tabulate


def test_abelian_splits_into_linear_characters():
    G = close_generators(catalog.cyclic_generators(8))
    irreps = decompose_regular(G, seed=5)
    assert [r.dim for r in irreps] == [1] * 8


def test_s3_dimensions(bench_irreps):
    assert [r.dim for r in bench_irreps["s3"]] == [1, 1, 2]


def test_sl2_5_dimensions(bench_irreps, bench_groups):
    dims = [r.dim for r in bench_irreps["sl2_5"]]
    assert dims == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert sum(d * d for d in dims) == bench_groups["sl2_5"].order
    from signedwalk.groups import conjugacy_classes

    assert conjugacy_classes(bench_groups["sl2_5"]).count == 9


def test_unitarity_everywhere(bench_irreps):
    for irreps in bench_irreps.values():
        for rep in irreps:
            eye = np.eye(rep.dim)
            for mat in rep.matrices:
                assert np.max(np.abs(mat @ mat.conj().T - eye)) <= 1e-8


def test_homomorphism_on_random_pairs(bench_groups, bench_irreps):
    rng = np.random.default_rng(12)
    for name, G in bench_groups.items():
        for rep in bench_irreps[name]:
            for _ in range(200 // len(bench_irreps[name]) + 1):
                a, b = (int(x) for x in rng.integers(0, G.order, size=2))
                err = np.max(
                    np.abs(rep.matrices[a] @ rep.matrices[b] - rep.matrices[G.mul(a, b)])
                )
                assert err <= 1e-7


def test_irreducibility_norm_one(bench_groups, bench_irreps):
    for name, G in bench_groups.items():
        for rep in bench_irreps[name]:
            norm = np.sum(np.abs(rep.character) ** 2) / G.order
            assert abs(norm - 1.0) <= 1e-6


def test_identity_maps_to_identity(bench_irreps):
    for irreps in bench_irreps.values():
        for rep in irreps:
            assert np.max(np.abs(rep.matrices[0] - np.eye(rep.dim))) <= 1e-10


def test_deterministic_for_fixed_seed(bench_groups):
    G = bench_groups["s4"]
    a = decompose_regular(G, seed=31)
    b = decompose_regular(G, seed=31)
    assert [r.dim for r in a] == [r.dim for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.matrices, rb.matrices)


def _assert_matches_dixon(G, irreps):
    """Splitting characters and table rows coincide up to permutation (1e-6)."""
    t = dixon_character_table(G)
    reps = t.classes.representatives
    rows = {i: t.values[i] for i in range(t.num_classes)}
    for rep in irreps:
        chi = np.array([rep.character[r] for r in reps])
        matches = [i for i, row in rows.items() if np.max(np.abs(row - chi)) < 1e-6]
        assert len(matches) == 1
        rows.pop(matches[0])
    assert rows == {}


def test_agrees_with_dixon_table(bench_groups, bench_irreps):
    for name in ("s4", "sl2_3", "sl2_5"):
        _assert_matches_dixon(bench_groups[name], bench_irreps[name])


def test_s6_agrees_with_dixon_table(s6):
    irreps = decompose_regular(s6, seed=11)
    assert [r.dim for r in irreps] == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
    _assert_matches_dixon(s6, irreps)


@pytest.mark.parametrize("name", ["s4", "sl2_5"])
def test_average_hermitian_matches_sum_over_group(bench_groups, name):
    G = bench_groups[name]
    rows, inv_rows = left_translation_rows(G)
    rng = np.random.default_rng(3)
    H = rng.standard_normal((G.order, G.order)) + 1j * rng.standard_normal((G.order, G.order))
    fast = _average_hermitian(H, rows, inv_rows)
    assert np.max(np.abs(fast - naive_average_hermitian(H, inv_rows))) <= 1e-12


def _coset_span(G):
    """Orthonormal basis of the functions constant on the left cosets of an
    involution t: the action on G/<t>, invariant and reducible."""
    t = next(g for g in range(1, G.order) if G.mul(g, g) == 0)
    coset = np.minimum(np.arange(G.order), G.mul_many(np.arange(G.order), t))
    return (coset[:, None] == np.unique(coset)[None, :]) / np.sqrt(2.0)


def test_restricted_average_on_reducible_subspace(bench_groups):
    """The tree tabulation and the mean of rho(g) K rho(g)^* over it equal the
    naive per-element gathers and sum on the coset span.  `split` averages like
    this whenever a first-pass eigenspace is reducible: after the real first
    pass, every eigenspace that holds a complex-type irreducible and its
    conjugate, or two copies of a quaternionic one, is."""
    G = bench_groups["s4"]
    n = G.order
    V = _coset_span(G)
    rows, inv_rows = left_translation_rows(G)
    rho = naive_tabulate(V, inv_rows)
    assert np.allclose(V @ rho, V[inv_rows], atol=1e-12)  # span(V) is invariant
    assert np.sum(np.abs(np.einsum("gii->g", rho)) ** 2) / n > 1.5  # and reducible
    mats = _tabulate(V, G.tree, inv_rows)
    assert np.max(np.abs(mats - rho)) <= 1e-12
    rng = np.random.default_rng(8)
    X = rng.standard_normal((V.shape[1],) * 2) + 1j * rng.standard_normal((V.shape[1],) * 2)
    K = (X + X.conj().T) / 2.0
    naive = sum(r @ K @ r.conj().T for r in rho) / n
    assert np.max(np.abs(_conjugation_mean(mats, K) - naive)) <= 1e-12


@pytest.mark.parametrize("name", ["s4", "sl2_5", "s6"])
def test_tabulate_matches_naive_on_every_irreducible(request, bench_groups, name):
    """On the span of the conjugated first columns of each irreducible (an
    invariant copy of it, in which R(g) acts as the irreducible's matrix)."""
    if name == "s6":
        G = request.getfixturevalue("s6")
        irreps = decompose_regular(G, seed=11)
    else:
        G, irreps = bench_groups[name], request.getfixturevalue("bench_irreps")[name]
    _, inv_rows = left_translation_rows(G)
    for rep in irreps:
        V = np.sqrt(rep.dim / G.order) * rep.matrices[:, :, 0].conj()
        mats = _tabulate(V, G.tree, inv_rows)
        assert np.max(np.abs(mats - naive_tabulate(V, inv_rows))) <= 1e-12
        assert np.max(np.abs(mats - rep.matrices)) <= 1e-12


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("name", ["c7", "c8", "q8", "sl2_3"])
def test_groups_with_non_real_irreducibles_match_dixon(bench_groups, name, seed):
    """Cyclic groups and SL2(3) have complex-type irreducibles, Q8 a
    quaternionic one: the real first pass leaves each of them in a reducible
    eigenspace that `split` must separate."""
    if name in bench_groups:
        G = bench_groups[name]
    else:
        G = close_generators(catalog.cyclic_generators(int(name[1:])))
    _assert_matches_dixon(G, decompose_regular(G, seed=seed))


def test_dimension_multiset_stable_across_seeds(bench_groups):
    for name in ("q8", "d4"):
        G = bench_groups[name]
        dims = {tuple(r.dim for r in decompose_regular(G, seed=s)) for s in range(8)}
        assert len(dims) == 1


def test_table_group_end_to_end():
    from signedwalk.groups import group_from_spec
    from signedwalk.irreps import fourier_distribution
    from signedwalk.walk import SignedSequence, exact_distribution

    k4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    G = group_from_spec({"kind": "table", "size": 4, "table": k4})
    irreps = decompose_regular(G, seed=1)
    assert [r.dim for r in irreps] == [1, 1, 1, 1]
    seq = SignedSequence((G.element(1), G.element(2), G.element(1)))
    fd = fourier_distribution(G, irreps, seq)
    ed = exact_distribution(G, seq)
    assert max(abs(fd[i] - ed.counts[i] / 8) for i in range(4)) < 1e-12


def test_size_cap():
    gens = catalog.sl2_prime_squared_generators(3)  # SL_2(9), order 720 -- fine
    G = close_generators(gens)
    assert G.order == 720
    big = close_generators(catalog.sl2_generators(17))  # order 4896 > cap
    with pytest.raises(SizeCap):
        decompose_regular(big)
