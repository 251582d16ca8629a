import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import signedwalk
from signedwalk import irreps as irreps_module
from signedwalk.chartable import dixon_character_table
from signedwalk.errors import CapExceeded, SplitFailure
from signedwalk.groups import group_from_spec
from signedwalk.irreps import _halves, _spread, _tabulate, decompose_regular

from conftest import left_translation_rows, naive_average_hermitian, naive_tabulate
from group_specs import SL2_9, cyclic, sl2, symmetric


def test_abelian_splits_into_linear_characters():
    G = group_from_spec(cyclic(8))
    irreps = decompose_regular(G, seed=5)
    assert [r.dim for r in irreps] == [1] * 8


def test_irreps_and_tables_leave_numpy_ma_unimported():
    # numpy 2.4's np.unique without return flags calls np.ma.is_masked, which
    # imports numpy.ma (about 13 ms of startup); irreps on S6 and the table
    # checks of MulTable need none of it
    code = (
        "import sys\n"
        "from signedwalk.elements import MulTable\n"
        "from signedwalk.groups import group_from_spec\n"
        "from signedwalk.irreps import decompose_regular\n"
        f"assert len(decompose_regular(group_from_spec({symmetric(6)!r}), 11)) == 11\n"
        "MulTable([[(i + j) % 6 for j in range(6)] for i in range(6)])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(signedwalk.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


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
    """Each half's function, spread, is the average of that half of H."""
    G = bench_groups[name]
    rows, inv_rows = left_translation_rows(G)
    inv = np.array([G.inv(g) for g in range(G.order)])
    rng = np.random.default_rng(3)
    H = rng.standard_normal((G.order, G.order)) + 1j * rng.standard_normal((G.order, G.order))
    f_sym, f_anti = _halves(H, rows)
    for f, half in ((f_sym, (H + H.T) / 2.0), (f_anti, (H - H.T) / 2.0)):
        fast = _spread(f, rows, inv)
        assert np.max(np.abs(fast - naive_average_hermitian(half, inv_rows))) <= 1e-12


@pytest.mark.parametrize("name", ["s4", "q8", "sl2_5", "c7", "s6"])
def test_halves_equal_the_gathered_mean_bitwise(request, bench_groups, name):
    """The one-pass halves equal the mean over axis 0 of each whole half
    op(H, H^T) / 2 gathered through the table, bit for bit."""
    if name == "s6":
        G = request.getfixturevalue("s6")
    elif name == "c7":
        G = group_from_spec(cyclic(7))
    else:
        G = bench_groups[name]
    table = G.dense_table()
    H = np.random.default_rng(11).standard_normal((G.order, G.order))
    halves = _halves(H, table)
    x = np.arange(G.order)[:, None]
    for op, f in zip((np.add, np.subtract), halves):
        assert np.array_equal(f, (op(H, H.T) / 2.0)[x, table].mean(axis=0))


def _coset_span(G):
    """Orthonormal basis of the functions constant on the left cosets of an
    involution t: the action on G/<t>, invariant and reducible."""
    t = next(g for g in range(1, G.order) if G.mul(g, g) == 0)
    coset = np.minimum(np.arange(G.order), G.mul_many(np.arange(G.order), t))
    return (coset[:, None] == np.unique(coset)[None, :]) / np.sqrt(2.0)


def test_tabulate_on_reducible_subspace(bench_groups):
    """The tree tabulation equals the naive per-element gathers on the coset
    span, an invariant subspace that holds more than one irreducible."""
    G = bench_groups["s4"]
    V = _coset_span(G)
    _, inv_rows = left_translation_rows(G)
    rho = naive_tabulate(V, inv_rows)
    assert np.allclose(V @ rho, V[inv_rows], atol=1e-12)  # span(V) is invariant
    assert np.sum(np.abs(np.einsum("gii->g", rho)) ** 2) / G.order > 1.5  # and reducible
    assert np.max(np.abs(_tabulate(V, G) - rho)) <= 1e-12


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
        mats = _tabulate(V, G)
        assert np.max(np.abs(mats - naive_tabulate(V, inv_rows))) <= 1e-12
        assert np.max(np.abs(mats - rep.matrices)) <= 1e-12


# C3 x S3 on 6 points: C3 on {0, 1, 2}, S3 on {3, 4, 5}
C3_S3 = {"kind": "permutation", "degree": 6,
         "generators": [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3], [0, 1, 2, 4, 3, 5]]}


@pytest.mark.parametrize("seed", [1, 7, 2024])
@pytest.mark.parametrize("name", ["c7", "c8", "q8", "sl2_3", "sl2_5", "sl2_7", "c3_s3"])
def test_groups_with_non_real_irreducibles_match_dixon(request, bench_groups, name, seed):
    """Cyclic groups and SL2(3) have complex-type irreducibles (C3 x S3 one of
    dimension 2), Q8, SL2(5) and SL2(7) quaternionic ones: the real first
    pass leaves each of them in a reducible eigenspace that the antisymmetric
    half of the draw must split."""
    if name in bench_groups:
        G = bench_groups[name]
    elif name == "sl2_7":
        G = request.getfixturevalue("sl2_7")
    elif name == "c3_s3":
        G = group_from_spec(C3_S3)
    else:
        G = group_from_spec(cyclic(int(name[1:])))
    _assert_matches_dixon(G, decompose_regular(G, seed=seed))


def test_antisymmetric_half_only_for_reducible_eigenspaces(monkeypatch, bench_groups, s6):
    """S6 has only real-type irreducibles, so its first-pass eigenspaces are
    irreducible and the antisymmetric half is never spread; Q8 has a
    quaternionic one, so it is, once."""
    antis, spread_antis = [], []

    def halves_spy(*args):
        out = _halves(*args)
        antis.append(out[1])
        return out

    def spread_spy(f, *args):
        spread_antis.extend(1 for anti in antis if f is anti)
        return _spread(f, *args)

    monkeypatch.setattr(irreps_module, "_halves", halves_spy)
    monkeypatch.setattr(irreps_module, "_spread", spread_spy)
    for G, seed, expected in ((s6, 11, 0), (bench_groups["q8"], 2024, 1)):
        antis.clear()
        spread_antis.clear()
        decompose_regular(G, seed=seed)
        assert len(antis) == 1  # one draw
        assert len(spread_antis) == expected


def test_decompose_regular_peak_memory(s6):
    """Traced peak of `decompose_regular` on the seed-11 S6 (numpy reports its
    buffers to tracemalloc), in MiB above what is traced at the call.  It read
    17.5-18.2 with two int32 tables held across the first `eigh`, the whole
    draw's halves and their int64 index copies formed at once, and every piece
    kept until the tables were done, and 10.0-10.8 with the halves as vectors
    from one pass over the draw and one table; the bound is 13."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decompose_regular(s6, seed=11)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20


def test_split_failure_after_the_retry_budget(monkeypatch, bench_groups):
    # a cluster gap no eigenvalue gap reaches merges every eigenspace, every draw
    monkeypatch.setattr(irreps_module, "_CLUSTER_GAP", 1e300)
    with pytest.raises(SplitFailure):
        decompose_regular(bench_groups["q8"], seed=1)


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
    G = group_from_spec(SL2_9)  # order 720 -- fine
    assert G.order == 720
    irreps = decompose_regular(G)
    assert len(irreps) == 13 and sum(r.dim**2 for r in irreps) == 720
    big = group_from_spec(sl2(17))  # order 4896 > cap
    with pytest.raises(CapExceeded, match="exceeds the explicit-representation cap"):
        decompose_regular(big)
