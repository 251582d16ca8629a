"""Order-preserving reduction of rational matrix tuples into GL_m(p).

For each input matrix A and each exponent j below its (finite or effective)
order, the squared deviation of A^j from the identity,

    D(A, j) = sum_{k != l} F_{kl}^2 + sum_k (F_{kk} - 1)^2,   F = A^j,

is a positive rational whenever A^j != I.  A prime that divides no entry
denominator, no determinant numerator, and no numerator of any D(A, j) admits
a reduction hom into GL_m(p) under which finite orders are preserved exactly
and infinite orders map to orders of at least n.  Entries are exact Fractions
throughout; the chosen prime is the smallest admissible one, so results are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .elements import MatrixElement, is_square
from .errors import CapExceeded, ConsistencyFailure, NotInvertible, SignedWalkError
from .primes import factorize, next_prime_outside

POWER_CAP = 10**6  # matrix products one order computation may take
FACTOR_CAP = 5 * 10**6  # Pollard-rho steps one bad-prime search may take


@dataclass(frozen=True)
class RationalMatrix:
    """Invertible m x m matrix with exact rational entries (row-major)."""

    m: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.m * self.m:
            raise ValueError("entry count does not match size")
        if self.det() == 0:
            raise NotInvertible("matrix is singular over Q")

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        m = len(rows)
        entries = tuple(Fraction(x) for row in rows for x in row)
        return cls(m, entries)

    @classmethod
    def identity(cls, m: int) -> "RationalMatrix":
        return cls(m, tuple(Fraction(int(i == j)) for i in range(m) for j in range(m)))

    def rows(self) -> list[list[Fraction]]:
        return [list(self.entries[i * self.m : (i + 1) * self.m]) for i in range(self.m)]

    def det(self) -> Fraction:
        rows = [list(r) for r in
                (self.entries[i * self.m : (i + 1) * self.m] for i in range(self.m))]
        m = self.m
        det = Fraction(1)
        for col in range(m):
            piv = next((r for r in range(col, m) if rows[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = -det
            det *= rows[col][col]
            inv = 1 / rows[col][col]
            for r in range(col + 1, m):
                if rows[r][col]:
                    f = rows[r][col] * inv
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        return det

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        m = self.m
        a, b = self.entries, other.entries
        out = []
        for i in range(m):
            for j in range(m):
                out.append(sum(a[i * m + k] * b[k * m + j] for k in range(m)))
        return RationalMatrix(m, tuple(out))

    def is_identity(self) -> bool:
        m = self.m
        return all(
            self.entries[i * m + j] == (1 if i == j else 0)
            for i in range(m)
            for j in range(m)
        )


class _Budget:
    """`cap` units of work; the unit past it raises `error`."""

    def __init__(self, cap: int, error: SignedWalkError) -> None:
        self.left, self.error = cap, error

    def spend(self, units: int = 1) -> None:
        self.left -= units
        if self.left < 0:
            raise self.error


def _finite_order_exponent(m: int) -> int:
    """lcm of all candidate finite orders of an m x m rational matrix.

    A finite-order matrix is diagonalizable with root-of-unity eigenvalues
    whose primitive orders k satisfy phi(k) <= m, hence k <= 2 m^2; the order
    divides the lcm of those k.  One exact power test A^L = I therefore decides
    finiteness outright.
    """
    L = 1
    for k in range(1, 2 * m * m + 1):
        phi = sum(1 for t in range(1, k + 1) if math.gcd(t, k) == 1)
        if phi <= m:
            L = L * k // math.gcd(L, k)
    return L


def _mat_pow(A: RationalMatrix, e: int, budget: _Budget) -> RationalMatrix:
    acc = RationalMatrix.identity(A.m)
    base = A
    while e:
        if e & 1:
            budget.spend()
            acc = acc.mul(base)
        e >>= 1
        if e:
            budget.spend()
            base = base.mul(base)
    return acc


def rational_order(A: RationalMatrix) -> int | None:
    """Exact order of A over Q, or None when the order is infinite.  Raises
    CapExceeded after POWER_CAP matrix products."""
    budget = _Budget(
        POWER_CAP, CapExceeded(f"power computation exceeded {POWER_CAP} multiplications")
    )
    L = _finite_order_exponent(A.m)
    if not _mat_pow(A, L, budget).is_identity():
        return None
    divisors = sorted(d for d in range(1, L + 1) if L % d == 0)
    for d in divisors:
        if _mat_pow(A, d, budget).is_identity():
            return d
    raise AssertionError("unreachable: A^L = I implies some divisor works")


@dataclass
class BadPrimeReport:
    primes: set[int]
    reasons: dict[int, list[str]]
    orders: list[int | None]  # per input matrix; None = infinite

    def add(self, p: int, reason: str) -> None:
        self.primes.add(p)
        self.reasons.setdefault(p, []).append(reason)


def bad_prime_set(matrices: list[RationalMatrix], n: int) -> BadPrimeReport:
    """Primes that any order-preserving reduction must avoid, with reasons.

    For inputs of finite order k the exponent range runs to k - 1 (so the
    image order cannot collapse to a proper divisor); for infinite order it
    runs to n - 1.  Raises CapExceeded once the factorizations would take more
    than FACTOR_CAP Pollard-rho steps.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    report = BadPrimeReport(primes=set(), reasons={}, orders=[])
    rho_budget = _Budget(
        FACTOR_CAP, CapExceeded(f"factoring exceeded {FACTOR_CAP} Pollard-rho steps")
    )
    for i, A in enumerate(matrices):
        if A.is_identity():
            raise SignedWalkError(f"matrix {i} is the identity")
        for e in A.entries:
            for q in factorize(e.denominator, rho_budget.spend):
                report.add(q, f"denominator of entry in matrix {i}")
        det = A.det()
        for q in factorize(abs(det.numerator), rho_budget.spend):
            report.add(q, f"determinant numerator of matrix {i}")
        try:
            order = rational_order(A)
        except CapExceeded:
            order = None  # inconclusive: treated as infinite, exponents up to n - 1
        report.orders.append(order)
        top = order if order is not None else n
        power = A
        for j in range(1, top):
            if j > 1:
                power = power.mul(A)
            dev = _identity_deviation(power)
            if dev == 0:
                raise AssertionError("zero deviation below the detected order")
            for q in factorize(dev.numerator, rho_budget.spend):
                report.add(q, f"deviation of matrix {i} at exponent {j}")
    return report


def _identity_deviation(P: RationalMatrix) -> Fraction:
    m = P.m
    total = Fraction(0)
    for k in range(m):
        for l in range(m):
            v = P.entries[k * m + l]
            if k == l:
                v = v - 1
            total += v * v
    return total


@dataclass
class EmbeddingEntry:
    original_order: int | None  # None = infinite
    image_order: int
    clause: str  # "i" (finite order preserved) or "ii" (image order >= n)


@dataclass
class EmbeddingResult:
    prime: int
    images: list[MatrixElement]
    entries: list[EmbeddingEntry]
    excluded: dict[int, list[str]]

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "images": [g.rows() for g in self.images],
            "report": [
                {
                    "original_order": e.original_order,
                    "image_order": e.image_order,
                    "clause": e.clause,
                }
                for e in self.entries
            ],
            "excluded_primes": {
                str(p): sorted(set(reasons)) for p, reasons in sorted(self.excluded.items())
            },
        }


def reduce_matrix_mod_p(A: RationalMatrix, p: int) -> MatrixElement:
    rows = [
        [e.numerator * pow(e.denominator, -1, p) % p for e in row] for row in A.rows()
    ]
    return MatrixElement.from_rows(rows, p)


def embed_mod_p(
    matrices: list[RationalMatrix],
    n: int,
    p_min: int | None = None,
) -> EmbeddingResult:
    """Reduction mod the smallest admissible prime, with orders re-verified.

    Clause "i": finite original order equals the image order.  Clause "ii":
    infinite original order, image order >= n.  Verification failure would
    contradict the construction and raises ConsistencyFailure.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    m = matrices[0].m
    if any(A.m != m for A in matrices):
        raise ValueError("matrices must share one size")
    if p_min is None:
        p_min = max(m + 1, 5)
    report = bad_prime_set(matrices, n)
    p = next_prime_outside(p_min, report.primes)

    images = [reduce_matrix_mod_p(A, p) for A in matrices]
    entries = []
    for A, img, order in zip(matrices, images, report.orders):
        image_order = img.order()
        if order is not None:
            if image_order != order:
                raise ConsistencyFailure(
                    f"image order {image_order} != original order {order} at p={p}"
                )
            entries.append(EmbeddingEntry(order, image_order, "i"))
        else:
            if image_order < n:
                raise ConsistencyFailure(
                    f"image order {image_order} < n={n} for an infinite-order input at p={p}"
                )
            entries.append(EmbeddingEntry(None, image_order, "ii"))
    return EmbeddingResult(
        prime=p,
        images=images,
        entries=entries,
        excluded=report.reasons,
    )


def rational_matrices_from_json(data) -> list[RationalMatrix]:
    """Input contract: list of matrices, entries as ints or "num/den" strings."""
    if not (isinstance(data, list) and all(is_square(rows, (int, str)) for rows in data)):
        raise ValueError("matrices must be a list of square lists of int or 'num/den' entries")
    out = []
    for rows in data:
        out.append(
            RationalMatrix.from_rows(
                [[Fraction(str(x)) for x in row] for row in rows]
            )
        )
    return out
