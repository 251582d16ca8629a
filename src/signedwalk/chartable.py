"""Character tables via class-sum eigenvectors over a prime field.

The class-sum multiplication operators act on the center of the group algebra;
over a prime field ell = 1 (mod exponent), ell > 2*sqrt(|G|), they are
simultaneously diagonalizable and their common eigenvectors are, up to scale,
the rows of the character table reduced mod ell.  Splitting eigenspaces class
by class, normalizing at the identity class, recovering degrees by modular
square roots, and lifting each value through its eigenvalue multiplicities
yields the complex table exactly.  The table keeps those integers (checked to
sum to the degree), and the multiplicity windows read them from there.  An
operator that is scalar on an eigenspace found so far cannot split it, so the
space passes on without a characteristic polynomial.

Each class-sum operator comes from one column (that of the inverse of the
class representative, composed along the generator tree) and one `bincount`
over the class pairs it produces.

The class data the lift and the multiplicity windows need -- element orders,
the power map u -> class of g^u and the orders modulo the center -- come from
one batched power walk over the class representatives (as many `mul_many`
calls as the largest element order), computed once and stored on the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConsistencyFailure,
    NonIntegralMultiplicity,
    NoSuitablePrime,
    TooManyClasses,
)
from .groups import ConjugacyClasses, FiniteGroup, conjugacy_classes
from .modarith import (
    charpoly_mod,
    element_of_order,
    inv_mod,
    matmul_mod,
    nullspace_mod,
    roots_mod,
    solve_in_span,
    sqrt_mod,
)
from .primes import is_prime

MAX_CLASSES = 512
_PRIME_SEARCH_BOUND = 2**31
_ORTHOGONALITY_TOL = 1e-8  # largest entry of the Gram matrix minus the identity


@dataclass
class CharacterTable:
    """Complex irreducible characters on conjugacy classes, plus class metadata."""

    group: FiniteGroup
    classes: ConjugacyClasses
    class_orders: tuple[int, ...]  # order of each class representative
    central_orders: tuple[int, ...]  # order of each representative modulo Z(G)
    power_map: np.ndarray  # [u, c] = class of rep_c^u, for u below the largest order
    inverse_class: tuple[int, ...]
    degrees: tuple[int, ...]
    values: np.ndarray  # (num_chars, num_classes) complex128
    multiplicities: tuple[np.ndarray, ...]  # [c][i, j]: of eps^j, eps^ord(rep_c) = 1, in Phi_i
    exponent: int
    modulus: int  # prime field used for the eigenvector computation

    @property
    def num_classes(self) -> int:
        return self.classes.count

    def noncentral_classes(self) -> list[int]:
        return [c for c, size in enumerate(self.classes.sizes) if size > 1]

    def nonlinear_characters(self) -> list[int]:
        return [i for i, d in enumerate(self.degrees) if d > 1]

    def central_order(self, class_index: int) -> int:
        """Order of g*Z(G) in G/Z(G) for the class representative g."""
        return self.central_orders[class_index]

    def power_classes(self, class_index: int) -> list[int]:
        """Class ids of g^u for u = 0..ord(g)-1, g the class representative."""
        return self.power_map[: self.class_orders[class_index], class_index].tolist()

    def to_json(self) -> dict:
        return {
            "order": self.group.order,
            "exponent": self.exponent,
            "modulus": self.modulus,
            "classes": [
                {
                    "representative": rep,
                    "size": size,
                    "element_order": k,
                }
                for rep, size, k in zip(
                    self.group.hex_encodings(self.classes.representatives),
                    self.classes.sizes,
                    self.class_orders,
                )
            ],
            "degrees": list(self.degrees),
            "characters": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.values
            ],
        }


def _find_table_prime(exponent: int, group_order: int) -> int:
    floor = math.isqrt(4 * group_order)  # ell^2 > 4|G| means ell > floor
    t = 1
    while exponent * t + 1 < _PRIME_SEARCH_BOUND:
        ell = exponent * t + 1
        if ell * ell > 4 * group_order and is_prime(ell):
            return ell
        t += 1
    raise NoSuitablePrime(
        f"no prime = 1 (mod {exponent}) above {floor} below {_PRIME_SEARCH_BOUND}"
    )


def _class_powers(G: FiniteGroup, cc: ConjugacyClasses):
    """(orders, central orders, power map) of the class representatives from one
    batched power walk: step u multiplies every rep^u by its rep at once, up to
    the largest order.  power_map[u, c] is the class of rep_c^u; the central
    order is the first u >= 1 whose power class is a singleton."""
    reps = np.array(cc.representatives, dtype=np.int64)
    singleton = np.array(cc.sizes) == 1
    orders = np.zeros(reps.size, dtype=np.int64)
    central = np.zeros(reps.size, dtype=np.int64)
    rows = [np.zeros(reps.size, dtype=np.int64)]  # rep^0 is the identity, class 0
    cur, u = reps, 1
    while not orders.all():
        cls = cc.class_of[cur]
        rows.append(cls)
        central[(central == 0) & singleton[cls]] = u
        orders[(orders == 0) & (cur == 0)] = u
        cur, u = G.mul_many(cur, reps), u + 1
    return tuple(orders.tolist()), tuple(central.tolist()), np.stack(rows[:-1])


def _class_matrix(G: FiniteGroup, cc: ConjugacyClasses, i: int, ell: int) -> np.ndarray:
    """Multiplication-by-class-sum operator in the class basis, reduced mod ell.

    M[k, j] = #{x in C_i : x^-1 z_k in C_j}.  The count is the same for every
    z in C_k, and x^-1 z is conjugate to z x^-1, so summing over z in C_k and
    moving the conjugation to x (every x in C_i counts alike) gives
    M[k, j] = |C_i| #{z in C_k : z x_i^-1 in C_j} / |C_k|: one column of
    x_i^-1 and one `bincount` over all (class of z, class of z x_i^-1) pairs.
    """
    r = cc.count
    col = G.right_column(G.inv(cc.representatives[i]))
    pairs = np.bincount(cc.class_of * r + cc.class_of[col], minlength=r * r).reshape(r, r)
    M, rem = np.divmod(pairs * cc.sizes[i], np.array(cc.sizes, dtype=np.int64)[:, None])
    if rem.any():
        raise ConsistencyFailure("class-pair counts are not divisible by the class sizes")
    return M % ell


def _eigenlines(G: FiniteGroup, cc: ConjugacyClasses, ell: int) -> list[np.ndarray]:
    """The common eigenlines of the class-sum operators mod ell, one (r, 1) basis
    each: the class-function space is split by one operator after another,
    smallest classes first, until every space is a line.  An operator that is
    scalar on a space has one eigenvalue there and cannot split it, so that space
    passes through without a characteristic polynomial, roots or kernel."""
    r = cc.count
    spaces: list[np.ndarray] = [np.eye(r, dtype=np.int64)]
    for i in sorted(range(1, r), key=lambda i: (cc.sizes[i], i)):
        if all(W.shape[1] == 1 for W in spaces):
            break
        Mi = _class_matrix(G, cc, i, ell)
        refined: list[np.ndarray] = []
        for W in spaces:
            if W.shape[1] == 1:
                refined.append(W)
                continue
            A = solve_in_span(W, matmul_mod(Mi, W, ell), ell)
            if np.array_equal(A, A[0, 0] * np.eye(len(A), dtype=np.int64)):
                refined.append(W)
                continue
            covered = 0
            for lam in roots_mod(charpoly_mod(A, ell), ell):
                shifted = (A - lam * np.eye(A.shape[0], dtype=np.int64)) % ell
                K = nullspace_mod(shifted, ell)
                refined.append(matmul_mod(W, K, ell))
                covered += K.shape[1]
            if covered != W.shape[1]:
                raise ConsistencyFailure("class operator failed to split semisimply")
        spaces = refined
    if any(W.shape[1] != 1 for W in spaces):
        raise ConsistencyFailure("class operators did not separate all characters")
    return spaces


def dixon_character_table(G: FiniteGroup) -> CharacterTable:
    """Full complex character table of an enumerated group.

    Raises TooManyClasses above `MAX_CLASSES` classes, NoSuitablePrime if the
    working-field search fails and NonIntegralMultiplicity if a lifted
    multiplicity row is not a partition of its degree.  Deterministic: no
    randomness anywhere.
    """
    cc = conjugacy_classes(G)
    r = cc.count
    if r > MAX_CLASSES:
        raise TooManyClasses(f"{r} classes exceeds cap {MAX_CLASSES}")
    class_orders, central_orders, power_map = _class_powers(G, cc)
    exponent = 1
    for k in class_orders:
        exponent = exponent * k // math.gcd(exponent, k)
    ell = _find_table_prime(exponent, G.order)
    inverse_class = tuple(int(cc.class_of[G.inv(rep)]) for rep in cc.representatives)

    spaces = _eigenlines(G, cc, ell)

    # normalize eigenvectors and recover degrees
    sizes = np.array(cc.sizes, dtype=np.int64)
    chibar = np.zeros((r, r), dtype=np.int64)
    degrees = np.zeros(r, dtype=np.int64)
    sqrt_cap = math.isqrt(G.order)
    inv_class_list = list(inverse_class)
    for row, W in enumerate(spaces):
        v = W[:, 0] % ell
        w = v * inv_mod(int(v[0]), ell) % ell
        terms = sizes % ell * w % ell * w[inv_class_list] % ell
        denom = int(np.sum(terms.astype(object)) % ell)
        d2 = G.order * inv_mod(denom, ell) % ell
        droot = sqrt_mod(d2, ell)
        d = min(droot, ell - droot)
        if d < 1 or d > sqrt_cap:
            raise ConsistencyFailure("lifted degree out of range")
        degrees[row] = d
        chibar[row] = d * w[inv_class_list] % ell
    if int(np.sum(degrees.astype(object) ** 2)) != G.order:
        raise ConsistencyFailure("degree squares do not sum to the group order")

    # lift values to C through eigenvalue multiplicities
    z = element_of_order(exponent, ell)
    values = np.zeros((r, r), dtype=np.complex128)
    multiplicities = []
    for c in range(r):
        kg = class_orders[c]
        zeta_inv = inv_mod(pow(z, exponent // kg, ell), ell)
        zi_pows = np.array([pow(zeta_inv, j, ell) for j in range(kg)], dtype=np.int64)
        T = zi_pows[np.outer(np.arange(kg), np.arange(kg)) % kg]
        mults = matmul_mod(chibar[:, power_map[:kg, c]], T, ell) * inv_mod(kg, ell) % ell
        # residues are >= 0, so rows summing to the degrees bound every entry too
        if np.any(mults.sum(axis=1) != degrees):
            raise NonIntegralMultiplicity("lifted multiplicities do not sum to the degree")
        multiplicities.append(mults)
        roots_of_unity = np.exp(2j * np.pi * np.arange(kg) / kg)
        values[:, c] = mults.astype(np.float64) @ roots_of_unity

    order_key = sorted(
        range(r),
        key=lambda i: (degrees[i], tuple(np.round(values[i].real, 6)) + tuple(np.round(values[i].imag, 6))),
    )
    values = values[order_key]
    degrees = degrees[order_key]

    table = CharacterTable(
        group=G,
        classes=cc,
        class_orders=class_orders,
        central_orders=central_orders,
        power_map=power_map,
        inverse_class=inverse_class,
        degrees=tuple(int(d) for d in degrees),
        values=values,
        multiplicities=tuple(m[order_key] for m in multiplicities),
        exponent=exponent,
        modulus=ell,
    )
    _check_orthogonality(table)
    return table


def _check_orthogonality(table: CharacterTable) -> None:
    sizes = np.array(table.classes.sizes, dtype=np.float64)
    gram = (table.values * sizes) @ table.values.conj().T / table.group.order
    if np.max(np.abs(gram - np.eye(table.num_classes))) > _ORTHOGONALITY_TOL:
        raise ConsistencyFailure("character rows fail orthogonality")


# ---------------------------------------------------------------------------
# eigenvalue multiplicities and the strict multiplicity window
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicityProfile:
    """Multiplicities of the eigenvalues eps^j (eps a primitive k-th root) of one
    irreducible image of a group element, as the character-table lift found them."""

    element_index: int
    order: int  # k
    central_order: int  # order of g modulo the center
    degree: int
    multiplicities: tuple[int, ...]  # length k, indexed by the exponent j


def eigenvalue_multiplicities(
    table: CharacterTable, char_index: int, class_index: int
) -> MultiplicityProfile:
    """The profile of Phi_char(g_class): row char_index of the lift's
    `multiplicities` at class_index."""
    return MultiplicityProfile(
        element_index=table.classes.representatives[class_index],
        order=table.class_orders[class_index],
        central_order=table.central_order(class_index),
        degree=table.degrees[char_index],
        multiplicities=tuple(table.multiplicities[class_index][char_index].tolist()),
    )


@dataclass(frozen=True)
class MultiplicityCheck:
    char_index: int
    class_index: int
    central_order: int
    status: str  # "ok" | "hypothesis_failed" | "vacuous"
    bounds_pass: bool | None
    lower: Fraction | None
    upper: Fraction | None
    multiplicities: tuple[int, ...]


@dataclass
class MultiplicityReport:
    alpha: Fraction
    entries: list[MultiplicityCheck]

    @property
    def checked(self) -> list[MultiplicityCheck]:
        return [e for e in self.entries if e.bounds_pass is not None]

    @property
    def all_pass(self) -> bool:
        return all(e.bounds_pass for e in self.checked)

    def count(self, status: str) -> int:
        return sum(1 for e in self.entries if e.status == status)


def _character_ratios(table: CharacterTable) -> tuple[list[int], list[int], np.ndarray]:
    """(nonlinear characters, noncentral classes, |chi(x)| / chi(1) over them)."""
    chars, classes = table.nonlinear_characters(), table.noncentral_classes()
    degrees = np.array(table.degrees, dtype=np.float64)[chars]
    values = table.values[np.ix_(chars, classes)]
    return chars, classes, np.abs(values) / degrees[:, None]


def max_character_ratio(table: CharacterTable):
    """max |chi(x)| / chi(1) over nonlinear chi and noncentral x, with the first
    (chi, x) attaining it, or None if every character is linear."""
    chars, classes, ratios = _character_ratios(table)
    if ratios.size == 0:
        return None
    i, c = np.unravel_index(np.argmax(ratios), ratios.shape)
    return float(ratios[i, c]), chars[i], classes[c]


def check_multiplicity_bounds(table: CharacterTable, alpha) -> MultiplicityReport:
    """Strict window (1/k1 - alpha, 1/k1 + alpha) * degree for every eigenvalue
    multiplicity, per nonlinear character and noncentral class.

    The per-character hypothesis max |chi(x)|/chi(1) <= alpha over noncentral x
    is verified from the table first; failing rows are reported, not asserted.
    Windows containing all of [0, degree] are flagged vacuous.  Bound
    comparisons are exact rational arithmetic.
    """
    alpha = Fraction(alpha).limit_denominator(10**12) if not isinstance(alpha, Fraction) else alpha
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0, 1)")
    entries: list[MultiplicityCheck] = []
    chars, noncentral, ratios = _character_ratios(table)
    for i, row in zip(chars, ratios):
        d = table.degrees[i]
        hypothesis_ok = row.max(initial=0.0) <= float(alpha) + 1e-9
        for c in noncentral:
            k1 = table.central_order(c)
            if not hypothesis_ok:
                entries.append(
                    MultiplicityCheck(i, c, k1, "hypothesis_failed", None, None, None, ())
                )
                continue
            prof = eigenvalue_multiplicities(table, i, c)
            lower = (Fraction(1, k1) - alpha) * d
            upper = (Fraction(1, k1) + alpha) * d
            # an integer lies in (lower, upper) exactly when it lies in (lo, hi)
            lo, hi = math.floor(lower), math.ceil(upper)
            vacuous = lo < 0 and hi > d
            ok = all(lo < m < hi for m in prof.multiplicities if m > 0)
            entries.append(
                MultiplicityCheck(
                    i,
                    c,
                    k1,
                    "vacuous" if vacuous else "ok",
                    ok,
                    lower,
                    upper,
                    prof.multiplicities,
                )
            )
    return MultiplicityReport(alpha=alpha, entries=entries)
