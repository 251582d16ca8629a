import numpy as np
import pytest

from signedwalk.errors import ConsistencyFailure
from signedwalk.groups import close_generators, permutation
from signedwalk.irreps import fourier_distribution
from signedwalk.walk import SignedSequence, exact_distribution

from conftest import random_sequence, ref_encode


def test_three_cycle_squared_probability(bench_groups, bench_irreps):
    G = bench_groups["s3"]
    a = G.element(G.index_of(permutation((1, 2, 0))))
    seq = SignedSequence((a, a))
    p = fourier_distribution(G, bench_irreps["s3"], seq)[0]
    assert p == pytest.approx(0.5, abs=1e-10)


def test_zero_outside_generated_subgroup(bench_groups, bench_irreps):
    G = bench_groups["s4"]
    rot = permutation((1, 2, 3, 0))
    seq = SignedSequence.constant(G.element(G.index_of(rot)), 5)
    sub = close_generators([rot])
    sub_encodings = {ref_encode(sub.element(i)) for i in range(sub.order)}
    outside = next(
        b for b in range(G.order) if ref_encode(G.element(b)) not in sub_encodings
    )
    p = fourier_distribution(G, bench_irreps["s4"], seq)[outside]
    assert abs(p) <= 1e-9


def test_total_probability_one(bench_groups, bench_irreps):
    rng = np.random.default_rng(41)
    for name in ("d4", "a4", "sl2_3"):
        G = bench_groups[name]
        seq = random_sequence(G, 6, rng)
        fd = fourier_distribution(G, bench_irreps[name], seq)
        assert abs(float(np.sum(fd)) - 1.0) <= 1e-8


def test_matches_exact_distribution_everywhere(bench_groups, bench_irreps):
    rng = np.random.default_rng(99)
    for name, G in bench_groups.items():
        for _ in range(3):
            n = int(rng.integers(1, 17))
            seq = random_sequence(G, n, rng)
            fd = fourier_distribution(G, bench_irreps[name], seq)
            ed = exact_distribution(G, seq)
            scale = 1 << n
            worst = max(abs(fd[i] - ed.counts[i] / scale) for i in range(G.order))
            assert worst <= 1e-8


def test_incomplete_irreps_rejected(bench_groups, bench_irreps):
    G = bench_groups["s3"]
    seq = SignedSequence.constant(G.element(1), 2)
    with pytest.raises(ConsistencyFailure, match="squared dimensions do not sum"):
        fourier_distribution(G, bench_irreps["s3"][:2], seq)
