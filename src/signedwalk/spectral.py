"""Singular-value computations and the inequality suite behind the walk bounds.

Covers: trace vs singular-value-sum, the two product inequalities, the
cosine-spectrum identity for averages (U + U^{-1})/2 of unitaries, the scalar
trigonometric inequalities, and the cascade diagnostics that track how fast
the ordered singular values of the averaged walk operator decay.  Only the
unconditional prefix-product inequality is ever asserted; the exponential
cascade predictions are emitted as diagnostics because their hypotheses live
far outside desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, ConsistencyFailure
from .groups import FiniteGroup
from .irreps import UnitaryIrrep
from .walk import SignedSequence

SVD_SIZE_CAP = 2048
_UNITARY_TOL = 1e-8  # largest entry of U U^* - I that `cos_spectrum` accepts


@dataclass(frozen=True)
class SingularProfile:
    """Singular values sorted nonincreasing; tiny negatives clamped to zero."""

    size: int
    values: tuple[float, ...]

    def prefix_products(self) -> list[float]:
        out, acc = [], 1.0
        for s in self.values:
            acc *= s
            out.append(acc)
        return out


def singular_values(M: np.ndarray) -> SingularProfile:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    if M.shape[0] > SVD_SIZE_CAP:
        raise CapExceeded(f"size {M.shape[0]} exceeds cap {SVD_SIZE_CAP}")
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyFailure(str(exc)) from exc
    if np.any(s < -1e-12):
        raise ConsistencyFailure("factorization produced a negative singular value")
    s = np.where(s < 0, 0.0, s)
    return SingularProfile(size=M.shape[0], values=tuple(float(x) for x in sorted(s, reverse=True)))


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceBoundReport:
    trace_abs: float
    singular_sum: float
    passed: bool


def trace_vs_singular_sum(M: np.ndarray) -> TraceBoundReport:
    """|trace M| <= sum of singular values, with additive slack 1e-9 * size."""
    prof = singular_values(M)
    t = abs(complex(np.trace(np.asarray(M, dtype=np.complex128))))
    s = float(sum(prof.values))
    return TraceBoundReport(trace_abs=t, singular_sum=s, passed=t <= s + 1e-9 * prof.size)


@dataclass(frozen=True)
class ProductBoundReport:
    size: int
    kth_passed: bool
    prefix_passed: bool
    worst_kth_ratio: float
    worst_prefix_ratio: float

    @property
    def passed(self) -> bool:
        return self.kth_passed and self.prefix_passed


def product_singular_bounds(M: np.ndarray, M2: np.ndarray, rel_slack: float = 1e-9) -> ProductBoundReport:
    """For every k: s_k(MM') <= min(s_k(M) s_1(M'), s_1(M) s_k(M')) and
    prod_{j<=k} s_j(MM') <= prod s_j(M) * prod s_j(M'), with relative slack."""
    A = np.asarray(M, dtype=np.complex128)
    B = np.asarray(M2, dtype=np.complex128)
    if A.shape != B.shape:
        raise ValueError("matrices must share a size")
    sa = singular_values(A).values
    sb = singular_values(B).values
    sab = singular_values(A @ B).values
    d = len(sa)
    worst_kth = 0.0
    worst_prefix = 0.0
    pa = pb = pab = 1.0
    kth_ok = prefix_ok = True
    for k in range(d):
        bound = min(sa[k] * sb[0], sa[0] * sb[k])
        if sab[k] > bound * (1 + rel_slack) + 1e-300:
            kth_ok = False
        if bound > 0:
            worst_kth = max(worst_kth, sab[k] / bound)
        pa *= sa[k]
        pb *= sb[k]
        pab *= sab[k]
        if pab > pa * pb * (1 + rel_slack) + 1e-300:
            prefix_ok = False
        if pa * pb > 0:
            worst_prefix = max(worst_prefix, pab / (pa * pb))
    return ProductBoundReport(
        size=d,
        kth_passed=kth_ok,
        prefix_passed=prefix_ok,
        worst_kth_ratio=worst_kth,
        worst_prefix_ratio=worst_prefix,
    )


def cos_spectrum(U: np.ndarray) -> tuple[list[float], list[float], float]:
    """(|Re eigenvalues| sorted, singular values of (U + U^*)/2 sorted, max deviation).

    For unitary U the two lists agree; ConsistencyFailure if U fails the unitarity check.
    """
    U = np.asarray(U, dtype=np.complex128)
    d = U.shape[0]
    if np.max(np.abs(U @ U.conj().T - np.eye(d))) > _UNITARY_TOL:
        raise ConsistencyFailure("input fails the unitarity tolerance")
    re = sorted((abs(float(lam.real)) for lam in np.linalg.eigvals(U)), reverse=True)
    sv = list(singular_values((U + U.conj().T) / 2.0).values)
    dev = max(abs(a - b) for a, b in zip(re, sv))
    return re, sv, dev


def trig_inequality_scan(h: float = 1e-4) -> tuple[float, float, float]:
    """Grid maxima of (t/2 - sin t) on [0, pi/2], (cos t - exp(-t^2/4)) on [0, pi],
    and (exp(-t^2/4) - exp(-2 t^2/pi^2)) on [0, pi]; all must be <= 0 up to 1e-12."""
    if h > 1e-3:
        raise ValueError("grid step must be <= 1e-3")
    t1 = np.arange(0.0, math.pi / 2 + h, h)
    v1 = float(np.max(t1 / 2.0 - np.sin(t1)))
    t2 = np.arange(0.0, math.pi + h, h)
    v2 = float(np.max(np.cos(t2) - np.exp(-(t2**2) / 4.0)))
    v3 = float(np.max(np.exp(-(t2**2) / 4.0) - np.exp(-2.0 * t2**2 / math.pi**2)))
    return v1, v2, v3


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like unitary: QR of a complex Gaussian with R-diagonal phases fixed."""
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(X)
    phases = np.diag(R) / np.abs(np.diag(R))
    return Q * phases


# ---------------------------------------------------------------------------
# cascade diagnostics for the averaged walk operator
# ---------------------------------------------------------------------------


@dataclass
class CascadeDiagnostics:
    """Quantities controlling the singular-value decay of M = (prod_i B_i) Phi(B^{-1}),
    where B_i = (Phi(A_i) + Phi(A_i^{-1}))/2.

    `dim_threshold_squared` is the exact integer p^(m^2-m-1); the threshold
    itself is its square root and irrational, so only the square is exact.
    Cascade predictions exp(-n l^2 / (422 d^2)) are reported for l > l0 without
    any pass/fail: their hypotheses need dimensions far beyond desk scale.  The
    one asserted inequality is the unconditional prefix-product bound
    prod_{j<=l} s_j(M) <= prod_i prod_{j<=l} s_j(B_i).
    """

    p: int
    m: int
    s: int
    n: int
    dim: int
    dim_threshold_squared: int
    element_orders: tuple[int, ...]
    multiplicity_caps: tuple[int, ...]  # m_i = floor(3 d / k_i)
    l0: int
    observed: SingularProfile
    observed_trace_abs: float
    trace_bound: float  # 120 d / s + 1 + 18.3 d / sqrt(n)
    small_dim_mass_bound: float  # 5 / (3 p)
    cascade_predictions: list[tuple[int, float]] = field(default_factory=list)
    prefix_lhs: list[float] = field(default_factory=list)
    prefix_rhs: list[float] = field(default_factory=list)
    prefix_ok: bool = True

    def csv_rows(self) -> list[tuple]:
        rows = []
        for l in range(1, self.dim + 1):
            pred = ""
            for ll, v in self.cascade_predictions:
                if ll == l:
                    pred = f"{v:.6e}"
                    break
            rows.append(
                (
                    l,
                    f"{self.observed.values[l - 1]:.6e}",
                    pred,
                    f"{self.prefix_lhs[l - 1]:.6e}",
                    f"{self.prefix_rhs[l - 1]:.6e}",
                )
            )
        return rows


def cascade_diagnostics(
    p: int,
    m: int,
    G: FiniteGroup,
    irrep: UnitaryIrrep,
    seq: SignedSequence,
    B,
) -> CascadeDiagnostics:
    """Observed singular profile of the averaged walk operator vs the predicted decay."""
    d = irrep.dim
    idxs = [G.index_of(e) for e in seq.elements]
    b_idx = B if isinstance(B, int) else G.index_of(B)
    orders = seq.orders()
    s = min(orders)
    n = seq.n

    factors = []
    M = np.eye(d, dtype=np.complex128)
    for a in idxs:
        Bi = (irrep.matrices[a] + irrep.matrices[G.inv(a)]) / 2.0
        factors.append(Bi)
        M = M @ Bi
    M = M @ irrep.matrices[G.inv(b_idx)]

    observed = singular_values(M)
    prefix_lhs = observed.prefix_products()
    rhs = np.ones(d)
    for Bi in factors:
        rhs *= np.array(singular_values(Bi).prefix_products())
    prefix_rhs = [float(x) for x in rhs]
    ok = all(l <= r * (1 + 1e-8) for l, r in zip(prefix_lhs, prefix_rhs))

    l0 = math.ceil(120 * d / s)
    preds = [
        (l, math.exp(-n * l * l / (422.0 * d * d))) for l in range(l0 + 1, d + 1)
    ]
    return CascadeDiagnostics(
        p=p,
        m=m,
        s=s,
        n=n,
        dim=d,
        dim_threshold_squared=p ** (m * m - m - 1),
        element_orders=orders,
        multiplicity_caps=tuple((3 * d) // k for k in orders),
        l0=l0,
        observed=observed,
        observed_trace_abs=abs(complex(np.trace(M))),
        trace_bound=120.0 * d / s + 1.0 + 18.3 * d / math.sqrt(n),
        small_dim_mass_bound=5.0 / (3.0 * p),
        cascade_predictions=preds,
        prefix_lhs=prefix_lhs,
        prefix_rhs=prefix_rhs,
        prefix_ok=ok,
    )
