import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedwalk import walk
from signedwalk.elements import MatrixElement, PermutationElement
from signedwalk.errors import CapExceeded, NotInGroup, NotInvertible, SignedWalkError
from signedwalk.groups import RowArith, close_generators, group_from_spec
from signedwalk.walk import (
    ExactDistribution,
    SignedSequence,
    central_binomial_bound,
    constant_walk_counts,
    exact_distribution,
    order_length_bound,
    rho_below_order_length_bound,
    rho_monte_carlo,
    sequence_from_spec,
)

from conftest import (
    brute_force_distribution,
    distribution_json,
    naive_exact_counts,
    naive_mc,
    random_sequence,
)
from group_specs import cyclic as cyclic_spec, sl2, symmetric


def cyclic(k):
    return group_from_spec(cyclic_spec(k))


def test_orders_computes_each_distinct_entry_once(monkeypatch):
    calls = []
    order = MatrixElement.order

    def counted(self):
        calls.append(self)
        return order(self)

    monkeypatch.setattr(MatrixElement, "order", counted)
    # equal entries built separately still count as one
    u, w = ([[1, 1], [0, 1]], [[0, 1], [4, 0]])
    entries = [MatrixElement.from_rows(rows, 5) for rows in (u, w, u, u, w, u)]
    seq = SignedSequence(tuple(entries))
    assert seq.orders() == (5, 4, 5, 5, 4, 5)
    assert sorted(e.entries for e in calls) == sorted(e.entries for e in entries[:2])


def test_sequence_rejects_identity():
    G = cyclic(5)
    with pytest.raises(SignedWalkError, match="sequence entries must be non-trivial"):
        SignedSequence((G.element(0),))


def test_sequence_order_statistics():
    G = group_from_spec(symmetric(4))
    transposition = G.index_of(PermutationElement((1, 0, 2, 3)))
    four_cycle = G.index_of(PermutationElement((1, 2, 3, 0)))
    seq = SignedSequence(
        (G.element(transposition), G.element(four_cycle), G.element(four_cycle))
    )
    assert seq.orders() == (2, 4, 4)
    assert seq.min_order == 2


def test_single_step_high_order():
    G = cyclic(7)
    d = exact_distribution(G, SignedSequence.constant(G.element(1), 1))
    nonzero = {i: c for i, c in enumerate(d.counts) if c}
    assert nonzero == {1: 1, G.inv(1): 1}


def test_involution_walk_is_deterministic():
    G = cyclic(2)
    d = exact_distribution(G, SignedSequence.constant(G.element(1), 3))
    assert d.counts == [0, 8]  # point mass at the involution, count 2^3


def test_four_step_counts_match_enumeration():
    G = cyclic(9)  # order > 8 so no wraparound
    seq = SignedSequence.constant(G.element(1), 4)
    d = exact_distribution(G, seq)
    assert d.counts == brute_force_distribution(G, seq)
    by_power = {i: c for i, c in enumerate(d.counts) if c}
    # walk lands on A^j with the central binomial pattern
    a2, am2 = G.mul(1, 1), G.inv(G.mul(1, 1))
    a4, am4 = G.mul(a2, a2), G.inv(G.mul(a2, a2))
    assert by_power == {0: 6, a2: 4, am2: 4, a4: 1, am4: 1}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_oracle_agreement_random(bench_groups, seed, n):
    rng = np.random.default_rng(seed)
    G = bench_groups[["s3", "d4", "q8", "a4", "s4", "sl2_3"][int(rng.integers(6))]]
    seq = random_sequence(G, n, rng)
    d = exact_distribution(G, seq)
    assert sum(d.counts) == 2**n
    assert d.counts == brute_force_distribution(G, seq)


def test_conservation_longer_walks(bench_groups):
    rng = np.random.default_rng(99)
    for name in ("s4", "sl2_5"):
        G = bench_groups[name]
        seq = random_sequence(G, 40, rng)
        assert sum(exact_distribution(G, seq).counts) == 2**40


@pytest.mark.parametrize("n", [31, 32, 33, 62, 63, 64, 65, 96, 4095, 4096])
def test_involution_walk_across_limb_boundaries(bench_groups, n):
    # counts of exactly 2^n cross the 2^32 and 2^64 limb edges; at n = 4096 the
    # last carry is 16 steps back, so 2^4096 is 128 limbs with a top limb of 2^32
    G = bench_groups["s4"]
    t = G.index_of(PermutationElement((1, 0, 2, 3)))
    d = exact_distribution(G, SignedSequence.constant(G.element(t), n))
    expected = [0] * G.order
    expected[0 if n % 2 == 0 else t] = 2**n
    assert d.counts == expected
    assert all(type(c) is int for c in d.counts)


def _assert_law_is(d: ExactDistribution, counts: list[int]) -> None:
    """rho, its maximizers and the support, read from the limbs, then the
    counts, all as the Python ints `counts` give them."""
    best = max(counts)
    rho = d.rho()
    assert rho.count == best and rho.maximizers == tuple(i for i, c in enumerate(counts) if c == best)
    assert d.support() == [i for i, c in enumerate(counts) if c]
    assert d.counts == counts


@pytest.mark.parametrize("name", ["s4", "sl2_5"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_long_walks_match_naive_convolution(bench_groups, name, seed):
    rng = np.random.default_rng(seed)
    G = bench_groups[name]
    seq = random_sequence(G, int(rng.integers(60, 131)), rng)
    _assert_law_is(exact_distribution(G, seq), naive_exact_counts(G, seq))


def test_longest_walk_matches_naive_convolution(bench_groups):
    G = bench_groups["s4"]
    seq = random_sequence(G, walk.MAX_WALK_LENGTH, np.random.default_rng(4096))
    _assert_law_is(exact_distribution(G, seq), naive_exact_counts(G, seq))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inverting_entries_leaves_law_unchanged(bench_groups, seed):
    rng = np.random.default_rng(seed)
    G = bench_groups["sl2_5"]
    seq = random_sequence(G, int(rng.integers(1, 70)), rng)
    flipped = SignedSequence(
        tuple(e.inv() if rng.integers(2) else e for e in seq.elements)
    )
    assert exact_distribution(G, flipped).counts == exact_distribution(G, seq).counts


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_conjugating_entries_conjugates_law(bench_groups, seed):
    rng = np.random.default_rng(seed)
    G = bench_groups[["s4", "sl2_5"][int(rng.integers(2))]]
    seq = random_sequence(G, int(rng.integers(1, 70)), rng)
    g = G.element(int(rng.integers(G.order)))
    conj = SignedSequence(tuple(g.mul(e).mul(g.inv()) for e in seq.elements))
    law = exact_distribution(G, seq).counts
    law_conj = exact_distribution(G, conj).counts
    gi = G.index_of(g)
    left = G.mul_many(np.full(G.order, gi), np.arange(G.order))
    image = G.mul_many(left, G.inv(gi))  # h -> g h g^{-1}
    assert all(law_conj[int(image[h])] == law[h] for h in range(G.order))


def test_support_inside_generated_subgroup(bench_groups):
    G = bench_groups["s4"]
    four_cycle = PermutationElement((1, 2, 3, 0))
    seq = SignedSequence.constant(G.element(G.index_of(four_cycle)), 6)
    sub = close_generators([four_cycle])
    sub_encodings = {sub.element(i).encode() for i in range(sub.order)}
    d = exact_distribution(G, seq)
    for i in d.support():
        assert G.element(i).encode() in sub_encodings


def test_reversal_symmetry(bench_groups):
    rng = np.random.default_rng(3)
    G = bench_groups["sl2_3"]
    seq = random_sequence(G, 7, rng)
    rev = SignedSequence(tuple(reversed(seq.elements)))
    d = exact_distribution(G, seq)
    drev = exact_distribution(G, rev)
    # reversed walk is the image of the original under g -> g^{-1}
    assert all(drev.counts[G.inv(i)] == d.counts[i] for i in range(G.order))
    assert exact_distribution(G, seq).rho().count == exact_distribution(G, rev).rho().count


def test_rho_example_one_parity():
    G = cyclic(67)
    a = G.element(1)
    for n in (5, 8):
        r = exact_distribution(G, SignedSequence.constant(a, n)).rho()
        assert r.fraction == central_binomial_bound(n)
        if n % 2 == 0:
            assert r.maximizers == (0,)
        else:
            assert set(r.maximizers) == {1, G.inv(1)}


def test_rho_order_three_short_walk():
    G = cyclic(3)
    r = exact_distribution(G, SignedSequence.constant(G.element(1), 2)).rho()
    assert r.fraction == Fraction(1, 2)
    assert r.maximizers == (0,)


def test_torsion_lower_bound_all_equal():
    for s in range(3, 9):
        G = cyclic(s)
        for n in (5, 12):
            r = exact_distribution(G, SignedSequence.constant(G.element(1), n)).rho()
            assert r.fraction >= Fraction(1, s)


@pytest.mark.parametrize("s", range(2, 13))
def test_constant_walk_fold_matches_exact_walk(s):
    # s = 2 is the involution case, A = A^{-1}
    G = cyclic(s)
    for n, count in enumerate(constant_walk_counts(s, 64), start=1):
        assert count == exact_distribution(G, SignedSequence.constant(G.element(1), n)).rho().count


def test_constant_walk_meets_the_141_bound_where_it_is_not_vacuous():
    s, n = 150, 20_000  # 141 / s < 1 and 141 / sqrt(n) < 1
    for count in constant_walk_counts(s, n):  # counts of up to 20,000 bits, never made a str
        pass
    rho = Fraction(count, 1 << n)
    assert not order_length_bound(s, n)[1]
    assert rho_below_order_length_bound(rho, s, n)
    assert rho >= Fraction(1, 75)  # n even: all mass on the 75 even residues of Z/150


def test_element_not_in_group():
    G = cyclic(5)
    alien = PermutationElement((1, 2, 3, 4, 0, 5))
    with pytest.raises(NotInGroup, match="element family does not match group"):
        exact_distribution(G, SignedSequence((alien,)))


def test_index_errors_other_than_membership_propagate(monkeypatch):
    G = cyclic(5)
    seq = SignedSequence((G.element(1),))

    def broken(g):
        raise TypeError("bug")

    monkeypatch.setattr(G, "index_of", broken)
    with pytest.raises(TypeError):
        exact_distribution(G, seq)


def test_walk_length_cap():
    G = cyclic(5)
    with pytest.raises(CapExceeded):
        SignedSequence((G.element(1),) * 5000)


def test_long_walk_float_value():
    # counts near 2^1200 exceed float range; the convenience double must survive
    G = cyclic(5)
    r = exact_distribution(G, SignedSequence.constant(G.element(1), 1200)).rho()
    assert r.value == pytest.approx(0.2, abs=1e-9)


def test_monte_carlo_exact_for_involution():
    G = cyclic(2)
    seq = SignedSequence.constant(G.element(1), 3)
    mc = rho_monte_carlo(seq, samples=5000, seed=1)
    assert mc.plugin_max_frequency == 1.0
    assert mc.distinct_products == 1


def test_monte_carlo_rejects_bad_counts():
    seq = SignedSequence.constant(cyclic(5).element(1), 3)
    with pytest.raises(ValueError, match="samples"):
        rho_monte_carlo(seq, samples=0, seed=1)
    with pytest.raises(ValueError, match="threads"):
        rho_monte_carlo(seq, samples=10, seed=1, threads=0)


def test_monte_carlo_deterministic_across_threads(bench_groups):
    G = bench_groups["sl2_5"]
    rng = np.random.default_rng(17)
    seq = random_sequence(G, 8, rng)
    a = rho_monte_carlo(seq, samples=100_000, seed=7, threads=1)
    b = rho_monte_carlo(seq, samples=100_000, seed=7, threads=4)
    assert a == b


def test_monte_carlo_within_five_stderr(bench_groups):
    G = bench_groups["sl2_5"]
    rng = np.random.default_rng(23)
    seq = random_sequence(G, 8, rng)
    mc = rho_monte_carlo(seq, samples=100_000, seed=11)
    exact = exact_distribution(G, seq).rho()
    rho = exact.value
    assert abs(mc.plugin_max_frequency - rho) <= 5 * math.sqrt(rho * (1 - rho) / 100_000)


def _mc_sequence(name: str, bench_groups) -> SignedSequence:
    rng = np.random.default_rng(29)
    sl2_5 = bench_groups["sl2_5"]
    if name.startswith("sl2_5"):
        n = {"sl2_5": 10, "sl2_5_n1": 1, "sl2_5_n65": 65, "sl2_5_bench_shape": 4}[name]
        seq = random_sequence(sl2_5, n, rng)
        return SignedSequence(seq.elements * 16) if name == "sl2_5_bench_shape" else seq
    if name == "torus_normalizer_31":  # 40 of the 59 non-identity diag(a, 1/a), [[0, a], [-1/a, 0]]
        mats = [[[a, 0], [0, pow(a, -1, 31)]] for a in range(2, 31)]
        mats += [[[0, a], [-pow(a, -1, 31), 0]] for a in range(1, 31)]
        return SignedSequence(tuple(MatrixElement.from_rows(mats[i], 31) for i in rng.permutation(59)[:40]))
    if name == "perm10":
        return SignedSequence(tuple(PermutationElement(tuple(rng.permutation(10).tolist())) for _ in range(12)))
    p, m = (1031, 2) if name == "mod1031" else (17, 4)
    letters = []
    while len(letters) < (7 if name == "mod17_seven" else 3):
        try:
            letters.append(MatrixElement.from_rows(rng.integers(0, p, size=(m, m)).tolist(), p))
        except NotInvertible:
            pass
    if name == "mod17":
        return SignedSequence((letters[0],) * 40)
    if name == "mod17_seven":
        return SignedSequence(tuple(letters))
    a = pow(2, (p - 1) // 5, p)  # order 5, with the quarter turn: the closure test's group
    letters[:2] = [MatrixElement.from_rows([[a, 0], [0, pow(a, -1, p)]], p),
                   MatrixElement.from_rows([[0, 1], [-1, 0]], p)]
    return SignedSequence(tuple(letters) * 3)


# name -> the one `right_mul` of `rho_monte_carlo` at 5,000 samples: (block
# products, blocks, path).  A block of k steps has 2^k products (2^(n mod k) for
# a short last block), and k is the largest k <= 8 whose tables fit
# min(ROW_TABLE_BOUND, 5,000 * blocks) entries, else the largest k whose
# products' entries do.
# sl2_5 (n = 10; 25 row codes, int64 keys): k = 8, words of 8 and 2 steps.
# sl2_5_n1: k = 8, one short block of one step.
# sl2_5_n65: k = 8 needs 2050 * 25 entries > 45,000; k = 7 has nine words of 7
#   steps and one of 2.
# sl2_5_bench_shape (4 letters repeated 16 times, as in the benchmark): one
#   distinct word of 8 steps.
# torus_normalizer_31 (40 distinct 2x2 letters mod 31, 961 row codes): k = 3
#   needs 106 * 961 entries > 5,000 * 14, k = 8 exceeds ROW_TABLE_BOUND; k = 2.
# mod17 (one 4x4 letter mod 17, n = 40; byte keys): only k = 1 has tables,
#   2 * 17^4 entries <= 5,000 * 40.
# mod17_seven (7 distinct 4x4 letters mod 17): no k has tables (14 * 17^4 >
#   ROW_TABLE_BOUND), so row codes compose, k = 8 with one short block.
# mod1031 (2x2 mod 1031, p^m above the bound, n = 9): entries compose, k = 8,
#   words of 8 and 1 steps.
# perm10 (12 random permutations of 10 points): compose, k = 8, words of 8 and 4.
MC_REPLAY_CASES = {
    "sl2_5": (256 + 4, 2, "gathered"),
    "sl2_5_n1": (2, 1, "gathered"),
    "sl2_5_n65": (9 * 128 + 4, 10, "gathered"),
    "sl2_5_bench_shape": (256, 8, "gathered"),
    "torus_normalizer_31": (20 * 4, 20, "gathered"),
    "mod17": (2, 40, "gathered"),
    "mod17_seven": (128, 1, "composed"),
    "mod1031": (256 + 2, 2, "composed"),
    "perm10": (256 + 16, 2, "composed"),
}


@pytest.fixture(scope="module")
def mc_replay(bench_groups):
    """name -> (sequence, `naive_mc` of it at 5,000 samples, seed 13), each computed once."""
    cases = {name: _mc_sequence(name, bench_groups) for name in MC_REPLAY_CASES}
    return {name: (seq, naive_mc(seq, 5_000, 13)) for name, seq in cases.items()}


@pytest.mark.parametrize("name", MC_REPLAY_CASES)
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_monte_carlo_matches_scalar_replay(monkeypatch, mc_replay, name, threads):
    seq, want = mc_replay[name]
    calls = []
    right_mul = RowArith.right_mul

    def spy(arith, factors, work):
        times = right_mul(arith, factors, work)
        calls.append((len(factors), work // 5_000, times.__name__))
        return times

    monkeypatch.setattr(RowArith, "right_mul", spy)
    mc = rho_monte_carlo(seq, samples=5_000, seed=13, threads=threads)  # two batches
    assert (mc.max_count, mc.distinct_products, mc.top_encoding) == want
    assert calls == [MC_REPLAY_CASES[name]]


def test_monte_carlo_wide_permutation_bytes_path():
    # degree > 15 permutations fall back to byte-keyed accumulation
    cyc = PermutationElement(tuple((i + 1) % 17 for i in range(17)))
    G = close_generators([cyc])
    seq = SignedSequence.constant(G.element(G.index_of(cyc)), 9)
    mc = rho_monte_carlo(seq, samples=40_000, seed=3, threads=2)
    exact = exact_distribution(G, seq).rho()
    assert abs(mc.plugin_max_frequency - exact.value) <= 5 * mc.stderr + 1e-12
    assert mc == rho_monte_carlo(seq, samples=40_000, seed=3, threads=1)


def test_monte_carlo_permutation_and_table_paths():
    Gp = group_from_spec(symmetric(4))
    seqp = SignedSequence.constant(Gp.element(Gp.index_of(PermutationElement((1, 2, 3, 0)))), 4)
    mcp = rho_monte_carlo(seqp, samples=20_000, seed=3)
    exact = exact_distribution(Gp, seqp).rho().value
    assert abs(mcp.plugin_max_frequency - exact) <= 5 * mcp.stderr + 1e-12

    rows = [[(i + j) % 8 for j in range(8)] for i in range(8)]
    from signedwalk.elements import MulTable, TableElement

    t = MulTable(rows)
    seqt = SignedSequence.constant(TableElement(t, 1), 6)
    Gt = close_generators([TableElement(t, 1)])
    mct = rho_monte_carlo(seqt, samples=20_000, seed=3)
    exact_t = exact_distribution(Gt, seqt).rho().value
    assert abs(mct.plugin_max_frequency - exact_t) <= 5 * mct.stderr + 1e-12


def test_distribution_json_dump():
    G = cyclic(5)
    d = exact_distribution(G, SignedSequence.constant(G.element(1), 2))
    fh = io.StringIO()
    d.write_json(G, fh)
    payload = json.loads(fh.getvalue())
    assert payload["denom_exp"] == 2
    assert sum(int(e["count"]) for e in payload["entries"]) == 4
    empty = io.StringIO()
    ExactDistribution(np.zeros((G.order, 1), dtype=np.int64), 0).write_json(G, empty)
    assert empty.getvalue() == json.dumps({"denom_exp": 0, "entries": []}, indent=2)


@pytest.mark.parametrize(("name", "n"), [("s4", 1), ("s4", 5), ("sl2_5", 7), ("sl2_5", 70)])
def test_write_json_matches_json_dump_across_chunks(monkeypatch, bench_groups, name, n):
    monkeypatch.setattr(walk, "_DUMP_CHUNK", 3)  # the support spans several chunks
    G = bench_groups[name]
    d = exact_distribution(G, random_sequence(G, n, np.random.default_rng(n)))
    fh = io.StringIO()
    d.write_json(G, fh)
    assert fh.getvalue() == json.dumps(distribution_json(d, G), indent=2, sort_keys=True)
    assert len(d.support()) > 3 or n == 1


def test_sequence_from_spec_indices_and_inline():
    G = group_from_spec(sl2(5))
    seq = sequence_from_spec({"elements": [1, [[1, 1], [0, 1]]], "repeat": 2}, G)
    assert seq.n == 4
    assert seq.elements[1] == MatrixElement.from_rows([[1, 1], [0, 1]], 5)
