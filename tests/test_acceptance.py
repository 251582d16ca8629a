"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
from fractions import Fraction

import numpy as np

from signedwalk.chartable import check_multiplicity_bounds, dixon_character_table
from signedwalk.groups import generators_from_spec, group_from_spec
from signedwalk.irreps import fourier_distribution
from signedwalk.spectral import (
    cascade_diagnostics,
    cos_spectrum,
    product_singular_bounds,
    random_unitary,
    trace_vs_singular_sum,
    trig_inequality_scan,
)
from signedwalk.walk import (
    SignedSequence,
    central_binomial_bound,
    exact_distribution,
    order_length_bound,
    rho_below_order_length_bound,
    rho_monte_carlo,
    signed_sum_check,
)
from signedwalk.embed import RationalMatrix, embed_mod_p

from conftest import BENCH_NAMES, random_sequence, ref_order
from group_specs import BENCH, SL2_149_TORUS, cyclic

# rho values produced by earlier criteria, consumed by the bound consistency check
_RHO_LEDGER: list[tuple[str, Fraction, int, int]] = []


def _report(num: int, ok: bool, detail: str) -> None:
    import conftest

    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fourier_inversion(bench_groups, bench_irreps):
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for name in BENCH_NAMES:
        G = bench_groups[name]
        irreps = bench_irreps[name]
        for _ in range(50):
            n = int(rng.integers(1, 17))
            seq = random_sequence(G, n, rng)
            fd = fourier_distribution(G, irreps, seq)
            ed = exact_distribution(G, seq)
            scale = 1 << n
            dev = max(abs(fd[i] - ed.counts[i] / scale) for i in range(G.order))
            worst = max(worst, dev)
            _RHO_LEDGER.append((name, ed.rho().fraction, seq.min_order, n))
    _report(1, worst <= 1e-8, f"trace identity vs exact law, worst |dev| = {worst:.2e} <= 1e-8")


def test_criterion_2_binomial_walk_exact():
    G = group_from_spec(cyclic(67))
    a = G.element(1)
    ok = True
    for n in range(1, 65):
        r = exact_distribution(G, SignedSequence.constant(a, n)).rho()
        if r.fraction != central_binomial_bound(n):
            ok = False
            break
        _RHO_LEDGER.append(("c67", r.fraction, 67, n))
    _report(2, ok, "all-equal walk with ord(A) > n matches C(n, n//2)/2^n exactly, n = 1..64")


def test_criterion_3_torsion_lower_bound():
    ok = True
    for s in range(3, 13):
        G = group_from_spec(cyclic(s))
        a = G.element(1)
        for n in (10, 50, 100):
            r = exact_distribution(G, SignedSequence.constant(a, n)).rho()
            if r.fraction < Fraction(1, s):
                ok = False
            _RHO_LEDGER.append((f"c{s}", r.fraction, s, n))
    _report(3, ok, "all-equal walk satisfies rho >= 1/s exactly, s = 3..12, n in {10,50,100}")


def test_criterion_4_signed_sum_lower_bound():
    rng = np.random.default_rng(20240804)
    ok = True
    for _ in range(100):
        K = int(rng.integers(1, 6))
        n = int(rng.integers(20, 201))
        signs = rng.integers(0, 2, size=n) * 2 - 1
        mags = rng.integers(1, K + 1, size=n)
        res = signed_sum_check(list(signs * mags), K=K)
        ok &= res.bound_holds
    _report(4, ok, "100 random signed sums satisfy rho >= 1/(4 K sqrt(n)) exactly")


def test_criterion_5_order_length_bound_consistency():
    checked = 0
    vacuous = 0
    ok = True
    sample = list(_RHO_LEDGER)
    if not sample:  # criterion run in isolation: draw a fresh sample
        rng = np.random.default_rng(20240805)
        for name in ("s4", "sl2_5"):
            G = group_from_spec(BENCH[name])
            for _ in range(10):
                n = int(rng.integers(2, 17))
                seq = random_sequence(G, n, rng)
                sample.append((name, exact_distribution(G, seq).rho().fraction, seq.min_order, n))
    for _, rho, s, n in sample:
        if s < 2 or n < 2:
            continue
        checked += 1
        if order_length_bound(s, n)[1]:
            vacuous += 1
        ok &= rho_below_order_length_bound(rho, s, n)

    # non-vacuous spot check: order-150 element of SL_2(149), walk of length 256
    (gen,) = generators_from_spec(SL2_149_TORUS)
    T = group_from_spec(SL2_149_TORUS)
    assert T.order == 150
    r = exact_distribution(T, SignedSequence.constant(gen, 256)).rho()
    spot_ok = r.fraction <= Fraction(141, 150)
    ok &= spot_ok
    _report(
        5,
        ok,
        f"rho <= 141*max(1/s, 1/sqrt(n)) on {checked} exact walks "
        f"({vacuous} vacuous flagged); spot check rho = {float(r.fraction):.4f} <= 141/150 = 0.94",
    )


def test_criterion_6_multiplicity_windows_sl2_49(sl2_49):
    table = dixon_character_table(sl2_49)
    degree_sum = sum(d * d for d in table.degrees)
    report = check_multiplicity_bounds(table, Fraction(1, 6))
    ok = (
        degree_sum == 117600
        and report.count("hypothesis_failed") == 0
        and report.count("vacuous") == 0
        and len(report.checked) > 0
        and report.all_pass
    )
    _report(
        6,
        ok,
        f"SL2(49): sum chi(1)^2 = {degree_sum}; {len(report.checked)} strict "
        "multiplicity windows at alpha = 1/6 all hold",
    )


def test_criterion_7_singular_value_suites():
    rng = np.random.default_rng(20240807)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 21))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ok &= trace_vs_singular_sum(M).passed
        rep = product_singular_bounds(M, M2, rel_slack=1e-9)
        ok &= rep.passed
    worst_dev = 0.0
    for d in range(2, 17):
        for _ in range(200):
            _, _, dev = cos_spectrum(random_unitary(d, rng))
            worst_dev = max(worst_dev, dev)
    ok &= worst_dev <= 1e-8
    v1, v2, v3 = trig_inequality_scan(1e-4)
    ok &= max(v1, v2, v3) <= 1e-12
    _report(
        7,
        ok,
        f"1000 trace/product inequality draws pass; cosine-spectrum worst dev "
        f"{worst_dev:.2e} <= 1e-8; trig grid violations <= 1e-12",
    )


def test_criterion_8_prefix_product_cascade(bench_groups, bench_irreps):
    G = bench_groups["sl2_5"]
    rep = next(r for r in bench_irreps["sl2_5"] if r.dim == 5)
    rng = np.random.default_rng(20240808)
    ok = True
    for _ in range(20):
        seq = random_sequence(G, 10, rng)
        diag = cascade_diagnostics(5, 2, G, rep, seq, int(rng.integers(G.order)))
        ok &= all(
            lhs <= rhs * (1 + 1e-8)
            for lhs, rhs in zip(diag.prefix_lhs, diag.prefix_rhs)
        )
    _report(
        8,
        ok,
        "prefix products of singular values of the averaged walk operator stay "
        "below the per-factor product bound, 20 random walks on the 5-dim block",
    )


def test_criterion_9_monte_carlo_consistency(bench_groups):
    G = bench_groups["sl2_5"]
    rng = np.random.default_rng(20240809)
    hits = 0
    identical = True
    for trial in range(20):
        n = int(rng.integers(4, 17))
        seq = random_sequence(G, n, rng)
        exact = exact_distribution(G, seq).rho()
        rho = exact.value
        mc1 = rho_monte_carlo(seq, samples=100_000, seed=1000 + trial, threads=1)
        mc4 = rho_monte_carlo(seq, samples=100_000, seed=1000 + trial, threads=4)
        identical &= mc1 == mc4
        tol = 5.0 * math.sqrt(rho * (1.0 - rho) / 100_000)
        if abs(mc1.plugin_max_frequency - rho) <= tol:
            hits += 1
    ok = hits >= 19 and identical
    _report(
        9,
        ok,
        f"plug-in estimate within 5 stderr of exact rho in {hits}/20 trials; "
        f"thread counts 1 and 4 byte-identical: {identical}",
    )


def test_criterion_10_embedding_examples():
    uni = embed_mod_p([RationalMatrix.from_rows([[1, 1], [0, 1]])], 5, p_min=2)
    minus = embed_mod_p([RationalMatrix.from_rows([[-1, 0], [0, -1]])], 10, p_min=2)
    diag2 = embed_mod_p([RationalMatrix.from_rows([[2, 0], [0, 1]])], 6, p_min=2)

    def img_order(res):  # recompute orders in GL_m(p) independently of the library path
        return ref_order(res.images[0])

    ok = (
        uni.prime == 5
        and uni.entries[0].clause == "ii"
        and img_order(uni) == 5
        and minus.prime == 3
        and minus.entries[0].clause == "i"
        and img_order(minus) == 2
        and diag2.entries[0].clause == "ii"
        and img_order(diag2) == diag2.entries[0].image_order
        and diag2.entries[0].image_order >= 6
    )
    _report(
        10,
        ok,
        f"reductions verified: unipotent -> p=5 order 5; -I -> p=3 order 2; "
        f"diag(2,1) -> p={diag2.prime} order {diag2.entries[0].image_order} >= 6",
    )


def test_criterion_11_character_engine_cross_check(bench_groups, bench_irreps):
    ok = True
    for name in ("s4", "sl2_3"):
        G = bench_groups[name]
        table = dixon_character_table(G)
        reps = table.classes.representatives
        rows = {i: table.values[i] for i in range(table.num_classes)}
        dims_sq = 0
        for rep in bench_irreps[name]:
            dims_sq += rep.dim * rep.dim
            chi = np.array([rep.character[r] for r in reps])
            matches = [i for i, row in rows.items() if np.max(np.abs(row - chi)) <= 1e-6]
            if len(matches) != 1:
                ok = False
                break
            rows.pop(matches[0])
        ok &= rows == {} and dims_sq == G.order
    _report(
        11,
        ok,
        "class-sum and regular-splitting character sets agree to 1e-6 on S4 and "
        "SL2(3); squared dimensions sum to |G|",
    )
