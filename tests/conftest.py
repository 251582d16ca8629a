"""Shared fixtures: the benchmark groups and their explicit irreducibles.

Everything heavyweight is session-scoped so the acceptance module and the
unit modules share one enumeration.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest

from signedwalk import catalog
from signedwalk.elements import PermutationElement
from signedwalk.groups import FiniteGroup, close_generators
from signedwalk.irreps import decompose_regular
from signedwalk.walk import SignedSequence

BENCH_NAMES = ["s3", "d4", "q8", "a4", "s4", "sl2_3", "sl2_5"]

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench_groups() -> dict[str, FiniteGroup]:
    return {name: catalog.named_group(name) for name in BENCH_NAMES}


@pytest.fixture(scope="session")
def bench_irreps(bench_groups):
    return {name: decompose_regular(G, seed=2024) for name, G in bench_groups.items()}


@pytest.fixture(scope="session")
def sl2_49():
    return close_generators(catalog.sl2_prime_squared_generators(7))


@pytest.fixture(scope="session")
def s6():
    """S6 from the transposition (0 1) and the 6-cycle (0 1 2 3 4 5), both
    relabelled by i -> [3, 1, 4, 5, 2, 0][i] (the benchmark's seed-11 input)."""
    return close_generators(
        [PermutationElement((0, 3, 2, 1, 4, 5)), PermutationElement((3, 4, 0, 1, 5, 2))]
    )


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately naive)
# ---------------------------------------------------------------------------


def brute_force_distribution(G: FiniteGroup, seq: SignedSequence) -> list[int]:
    """Enumerate all 2^n sign vectors by direct element multiplication."""
    idxs = [G.index_of(e) for e in seq.elements]
    counts = [0] * G.order
    for signs in itertools.product((0, 1), repeat=seq.n):
        cur = 0
        for s, a in zip(signs, idxs):
            cur = G.mul(cur, a if s else G.inv(a))
        counts[cur] += 1
    return counts


def naive_exact_counts(G: FiniteGroup, seq: SignedSequence) -> list[int]:
    """Step-by-step Python-int convolution: the mass at g moves to g*a and g*a^{-1}."""
    cur = [0] * G.order
    cur[0] = 1
    for a in (G.index_of(e) for e in seq.elements):
        ainv = G.inv(a)
        nxt = [0] * G.order
        for g, c in enumerate(cur):
            if c:
                nxt[G.mul(g, a)] += c
                nxt[G.mul(g, ainv)] += c
        cur = nxt
    return cur


def naive_dense_table(G: FiniteGroup) -> np.ndarray:
    """The per-column build: table[:, j] = mul_many(all, j) on a copy without a table,
    so every column goes through the variant's own product and lookup."""
    bare = copy.copy(G)
    bare._table = None
    idxs = np.arange(G.order)
    table = np.empty((G.order, G.order), dtype=np.int32)
    for j in range(G.order):
        table[:, j] = bare.mul_many(idxs, j)
    return table


def left_translation_rows(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """(rows[x, h] = index of x h, inv_rows[a, b] = index of a^{-1} b)."""
    rows = np.array([G.left_row(g) for g in range(G.order)], dtype=np.int64)
    return rows, rows[[G.inv(g) for g in range(G.order)]]


def naive_average_hermitian(H: np.ndarray, left_inv_rows: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_g R(g) H R(g)^* as |G| row/column gathers of H, O(|G|^3)."""
    n = H.shape[0]
    acc = np.zeros_like(H)
    for g in range(n):
        pi = left_inv_rows[g]
        acc += H[np.ix_(pi, pi)]
    return acc / n


def pascal_central_binomial(n: int) -> int:
    """C(n, floor(n/2)) from an explicit Pascal triangle."""
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[n // 2]


def naive_signed_sum_counts(a_list) -> dict[int, int]:
    """Plain dict DP for the law of sum +-a_i."""
    counts = {0: 1}
    for a in a_list:
        nxt: dict[int, int] = {}
        for v, c in counts.items():
            nxt[v + a] = nxt.get(v + a, 0) + c
            nxt[v - a] = nxt.get(v - a, 0) + c
        counts = nxt
    return counts


def random_sequence(G: FiniteGroup, n: int, rng: np.random.Generator) -> SignedSequence:
    return SignedSequence(tuple(G.element(int(rng.integers(1, G.order))) for _ in range(n)))
