import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedwalk import spectral
from signedwalk.errors import CapExceeded, ConsistencyFailure
from signedwalk.spectral import (
    cascade_diagnostics,
    cos_spectrum,
    product_singular_bounds,
    random_unitary,
    singular_values,
    trace_vs_singular_sum,
    trig_inequality_scan,
)
from signedwalk.groups import group_from_spec, matrix_from_rows
from signedwalk.irreps import UnitaryIrrep
from signedwalk.walk import SignedSequence

from conftest import matrix_rows, random_sequence


def test_singular_values_diagonal():
    assert singular_values(np.diag([3.0, 4.0])).values == (4.0, 3.0)


def test_singular_values_unitary_all_ones():
    rng = np.random.default_rng(1)
    for d in (2, 5, 9):
        prof = singular_values(random_unitary(d, rng))
        assert max(abs(s - 1.0) for s in prof.values) <= 1e-10


def test_singular_values_rank_one():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    prof = singular_values(np.outer(u, v.conj()))
    assert prof.values[0] == pytest.approx(1.0, abs=1e-10)
    assert max(prof.values[1:]) <= 1e-10


def test_singular_values_vs_gram_eigenvalues():
    """Independent path: sqrt of eigenvalues of M* M."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 33))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sv = np.array(singular_values(M).values)
        ev = np.sqrt(np.maximum(np.linalg.eigvalsh(M.conj().T @ M), 0.0))[::-1]
        assert np.max(np.abs(sv - ev)) <= 1e-8


def test_backward_error_of_factorization():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 65))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        U, s, Vh = np.linalg.svd(M)
        err = np.max(np.abs(M - (U * s) @ Vh))
        assert err <= 1e-10 * max(1.0, float(np.max(np.abs(M))))


def test_trace_bound_identity_equality():
    rep = trace_vs_singular_sum(np.eye(7))
    assert rep.trace_abs == pytest.approx(7.0)
    assert rep.singular_sum == pytest.approx(7.0)
    assert rep.passed


def test_trace_bound_nilpotent():
    J = np.diag(np.ones(4), k=1)
    rep = trace_vs_singular_sum(J)
    assert rep.trace_abs == 0.0 and rep.passed


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_trace_and_product_bounds_random(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 21))
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    M2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert trace_vs_singular_sum(M).passed
    assert product_singular_bounds(M, M2).passed


def test_product_bounds_identity_equality():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((5, 5))
    rep = product_singular_bounds(M, np.eye(5))
    assert rep.passed
    assert rep.worst_kth_ratio == pytest.approx(1.0, abs=1e-9)


def test_product_bounds_with_inverse():
    rng = np.random.default_rng(7)
    M = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    rep = product_singular_bounds(M, np.linalg.inv(M))
    assert rep.passed


def test_cos_spectrum_pure_imaginary():
    re, sv, dev = cos_spectrum(np.diag([1j, -1j]))
    assert re == [0.0, 0.0] and sv == [0.0, 0.0] and dev == 0.0


def test_cos_spectrum_sixth_root():
    re, sv, dev = cos_spectrum(np.diag([1.0, np.exp(1j * np.pi / 3)]))
    assert re[0] == pytest.approx(1.0)
    assert re[1] == pytest.approx(0.5)
    assert dev <= 1e-12


def test_cos_spectrum_random_unitaries():
    rng = np.random.default_rng(8)
    for d in range(2, 17):
        for _ in range(20):
            _, _, dev = cos_spectrum(random_unitary(d, rng))
            assert dev <= 1e-8


def test_cos_spectrum_rejects_non_unitary():
    with pytest.raises(ConsistencyFailure, match="input fails the unitarity tolerance"):
        cos_spectrum(np.diag([2.0, 1.0]))


def test_trig_scan():
    v1, v2, v3 = trig_inequality_scan(1e-4)
    assert v1 <= 1e-12 and v2 <= 1e-12 and v3 <= 1e-12
    with pytest.raises(ValueError):
        trig_inequality_scan(0.1)


def test_cascade_vacuous_when_l0_exceeds_dim(bench_groups, bench_irreps):
    G = bench_groups["sl2_5"]
    rep = next(r for r in bench_irreps["sl2_5"] if r.dim == 4)
    minus_i = G.index_of(
        matrix_from_rows([[-1, 0], [0, -1]], 5)
    )
    seq = SignedSequence.constant(G.element(minus_i), 4)  # s = 2
    diag = cascade_diagnostics(5, 2, G, rep, seq, 0)
    assert diag.l0 == math.ceil(120 * 4 / 2)
    assert diag.l0 > diag.dim
    assert diag.cascade_predictions == []


def test_cascade_predictions_fill_the_csv_past_l0():
    # <diag(a, 1/a), quarter turn> mod 241 has order 480 (a = 7, a primitive
    # root).  Its elements are monomial, so replacing each entry a^k by
    # exp(2 pi i k / 240) is a unitary representation, irreducible of
    # dimension 2.  Letters of order 240 give l0 = ceil(120 * 2 / 240) = 1 < 2.
    p, a = 241, 7
    torus = [[a, 0], [0, pow(a, -1, p)]]
    G = group_from_spec(
        {"kind": "matrix_mod_p", "p": p, "m": 2, "generators": [torus, [[0, p - 1], [1, 0]]]}
    )
    assert G.order == 480
    log = {pow(a, k, p): k for k in range(p - 1)}
    lift = np.exp(2j * np.pi * np.arange(p - 1) / (p - 1))
    mats = np.array(
        [
            [[lift[log[x]] if x else 0 for x in row] for row in matrix_rows(G.element(i))]
            for i in range(G.order)
        ]
    )
    for g in G.generator_indices:  # a homomorphism: rep(h g) = rep(h) rep(g)
        assert np.allclose(mats[G.mul_many(np.arange(G.order), g)], mats @ mats[g])
    rep = UnitaryIrrep(dim=2, matrices=mats, character=np.trace(mats, axis1=1, axis2=2))
    n = 5
    seq = SignedSequence.constant(matrix_from_rows(torus, p), n)
    diag = cascade_diagnostics(p, 2, G, rep, seq, 0)
    assert diag.s == 240 and diag.l0 == 1 < diag.dim
    # every B_i is cos(2 pi / 240) I, so both singular values are its n-th power
    sv = f"{math.cos(2 * math.pi / 240) ** n:.6e}"
    assert [row[:3] for row in diag.csv_rows()] == [
        (1, sv, ""),
        (2, sv, f"{math.exp(-n * 4 / (422.0 * 4)):.6e}"),
    ]


def test_singular_values_size_cap_is_a_resource_cap(monkeypatch):
    monkeypatch.setattr(spectral, "SVD_SIZE_CAP", 2)
    with pytest.raises(CapExceeded, match="size 3 exceeds cap 2"):
        singular_values(np.eye(3))


def test_prefix_product_inequality_random(bench_groups, bench_irreps):
    rng = np.random.default_rng(10)
    G = bench_groups["sl2_5"]
    rep = next(r for r in bench_irreps["sl2_5"] if r.dim == 5)
    for _ in range(5):
        seq = random_sequence(G, 10, rng)
        diag = cascade_diagnostics(5, 2, G, rep, seq, int(rng.integers(G.order)))
        assert diag.prefix_ok


def test_order_two_entries_give_unit_prefix(bench_groups, bench_irreps):
    G = bench_groups["sl2_5"]
    rep = next(r for r in bench_irreps["sl2_5"] if r.dim == 4)
    minus_i = G.index_of(
        matrix_from_rows([[-1, 0], [0, -1]], 5)
    )
    seq = SignedSequence.constant(G.element(minus_i), 6)
    diag = cascade_diagnostics(5, 2, G, rep, seq, 0)
    # each factor is (Phi(A) + Phi(A^{-1}))/2 = Phi(A), a unitary
    assert max(abs(x - 1.0) for x in diag.prefix_rhs) <= 1e-9


def test_averaged_factors_never_exceed_unit_norm(bench_groups, bench_irreps):
    G = bench_groups["sl2_3"]
    rng = np.random.default_rng(11)
    for rep in bench_irreps["sl2_3"]:
        for _ in range(5):
            a = int(rng.integers(1, G.order))
            Bi = (rep.matrices[a] + rep.matrices[G.inv(a)]) / 2.0
            assert singular_values(Bi).values[0] <= 1.0 + 1e-9


def test_dim_threshold_square_is_exact_biginteger():
    from signedwalk.spectral import CascadeDiagnostics, SingularProfile

    def make(p, m):
        return CascadeDiagnostics(
            p=p,
            m=m,
            s=2,
            n=2,
            dim=1,
            dim_threshold_squared=p ** (m * m - m - 1),
            element_orders=(2,),
            multiplicity_caps=(1,),
            l0=60,
            observed=SingularProfile(1, (1.0,)),
            observed_trace_abs=1.0,
            trace_bound=1.0,
            small_dim_mass_bound=5 / (3 * p),
            prefix_lhs=[1.0],
            prefix_rhs=[1.0],
        )

    # far beyond float range, but exact as an integer
    assert make(149, 43).dim_threshold_squared == 149**1805
    small = make(5, 3)
    assert small.dim_threshold_squared == 5**5
