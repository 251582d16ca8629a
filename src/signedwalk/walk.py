"""The signed-product walk: exact law, maximum point probability, bounds, Monte Carlo.

All probabilities of the walk are dyadic rationals; the exact engine therefore
keeps integer counts with denominator 2^n and never rounds.  The law is one
(|G|, limbs) int64 array of base-2^32 limbs: a step is two row gathers, and a
vectorized carry pass every 30 steps keeps each limb below 2^32 + 2^31, so no
limb overflows.  A law that is read is normalized to limbs below 2^32, and its
rho and support come from the limbs in numpy; only counts that are read become
exact Python ints.  Each step reads the column of its letter's inverse, the
letter's column inverted, so the walk never reads the group's inverses.  The
law dump (`ExactDistribution.write_json`) writes bytes: each chunk of support
elements is one `%` template whose fixed-width lines carry every element's hex
text from `FiniteGroup.hex_text`, so Python formats only the counts.  A
constant walk needs no group: its law is the binomial law
folded onto <A> = Z/s, s the order of A (`constant_walk_counts`).  Element
orders, inverses and the identity test of a sequence's entries are batched
`RowArith` row operations; a matrix order comes from the factored exponent of
GL_m(p), so it is found without enumerating <A>.  The Monte-Carlo
estimator needs no enumeration.  It cuts the n steps into blocks of k <= 8 steps
and gives each distinct block word its 2^k signed products, so one
`RowArith.right_mul` step per block, indexed by the block's k sign bits,
multiplies every sample's row (a table gather for matrix row codes when the run
pays for the tables, else a matmul or compose on entries).  The products are
counted by their keys, which sort in encoding order, per thread task with
`np.unique` and across tasks with `np.unique` and weighted sums; only the modal
key is turned back into encoded bytes.  It is deterministic for a fixed
(seed, samples) pair regardless of worker count: samples are processed in
fixed-size batches whose bit streams come from a counter-based generator keyed
by (seed, batch index).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .elements import Element, same_family
from .errors import CapExceeded, SignedWalkError
from .groups import (
    ROW_TABLE_BOUND,
    FiniteGroup,
    RowArith,
    elements_from_entries,
    is_spec_int,
    spec_field,
    spec_prime,
)
from .primes import is_prime

MAX_WALK_LENGTH = 4096
# exact C(n, n // 2) took 9.3 s at n = 10^6, 32 s at 2 * 10^6 and 87 s at
# 3 * 10^6 (2-core VM): the cap keeps `bounds` inside a minute
MAX_BINOMIAL_N = 2_000_000
# `signed_sum_check` scans 2nK + 1 coefficients of a (n + 8) * 2nK-bit integer,
# about 0.6 ns per unit of (nK)^2 (n + 8): 4.8 s at n = 1000 and 46 s at
# n = 2000 (K = 3), 321 s at n = 4000; the cap keeps it inside a minute
MAX_SIGNED_SUM_WORK = 10**11
_MC_BATCH = 4096
_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_CARRY_EVERY = 30
_DUMP_CHUNK = 4096  # support elements encoded per write of the law dump
_MC_DISTINCT_CAP = 1_000_000  # distinct Monte-Carlo products kept before CapExceeded
_MC_BLOCK = 8  # most steps per sign block: one byte of sign bits per block
_MC_TASK_BATCHES = 16  # most batches whose keys one thread task holds at once


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def check_walk_length(n: int) -> None:
    """CapExceeded for a walk of more than MAX_WALK_LENGTH steps."""
    if n > MAX_WALK_LENGTH:
        raise CapExceeded(f"walk length capped at {MAX_WALK_LENGTH}")


def check_binomial_length(n: int) -> None:
    """CapExceeded for a central binomial C(n, n // 2) past MAX_BINOMIAL_N."""
    if n > MAX_BINOMIAL_N:
        raise CapExceeded(f"binomial length capped at {MAX_BINOMIAL_N}")


def check_signed_sum_size(n: int, K: int) -> None:
    """CapExceeded for a signed sum of n terms bounded by K whose exact law
    (`signed_sum_check`) costs more than MAX_SIGNED_SUM_WORK units (nK)^2 (n + 8)."""
    if (n * K) ** 2 * (n + 8) > MAX_SIGNED_SUM_WORK:
        raise CapExceeded(f"signed sum capped at (n K)^2 (n + 8) = {MAX_SIGNED_SUM_WORK}")


@dataclass(frozen=True)
class SignedSequence:
    """The tuple (A_1, ..., A_n) driving the walk; repetition allowed.

    Every entry must be non-trivial.
    """

    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        if len(self.elements) < 1:
            raise ValueError("sequence must contain at least one element")
        same_family(self.elements)
        arith = RowArith(self.elements[0])
        if arith.is_identity(arith.rows(self.elements)).any():
            raise SignedWalkError("sequence entries must be non-trivial")
        check_walk_length(len(self.elements))

    @classmethod
    def constant(cls, element: Element, n: int) -> "SignedSequence":
        return cls((element,) * n)

    @property
    def n(self) -> int:
        return len(self.elements)

    def orders(self) -> tuple[int, ...]:
        """Order of each entry, computed once per distinct entry."""
        distinct = list(dict.fromkeys(self.elements))
        arith = RowArith(distinct[0])
        by_entry = dict(zip(distinct, arith.orders(arith.rows(distinct))))
        return tuple(by_entry[e] for e in self.elements)

    @property
    def min_order(self) -> int:
        return min(self.orders())


# ---------------------------------------------------------------------------
# exact distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoResult:
    """Maximum point probability as an exact dyadic rational."""

    count: int
    denom_exp: int
    maximizers: tuple[int, ...]  # element indices, ascending

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, 1 << self.denom_exp)

    @property
    def value(self) -> float:
        # via Fraction: exact rounding, no overflow for walk lengths past 1024
        return float(self.fraction)


@dataclass(eq=False)
class ExactDistribution:
    """Law of the signed product: integer counts over element indices, denominator 2^n.

    The counts are the rows of `limbs`, a (|G|, limbs) int64 array of base-2^32
    limbs, least significant first, normalized here, in place, to limbs below
    2^32.  `rho` and `support` read the limbs in numpy; the Python-int `counts`
    are built on first read."""

    limbs: np.ndarray
    denom_exp: int

    def __post_init__(self) -> None:
        while (self.limbs >> _LIMB_BITS).any():  # more than once if a carry fills a limb
            self.limbs = _carry(self.limbs)

    @cached_property
    def counts(self) -> list[int]:
        """Exact Python-int counts, from base-2^64 words (two limbs each)."""
        limbs = np.pad(self.limbs, ((0, 0), (0, self.limbs.shape[1] % 2))).astype(np.uint64)
        words = limbs[:, 1::2] << 32
        words |= limbs[:, ::2]
        counts = words[:, -1].tolist()
        for k in range(words.shape[1] - 2, -1, -1):
            counts = [(c << 64) + x for c, x in zip(counts, words[:, k].tolist())]
        return counts

    def support(self) -> list[int]:
        return np.flatnonzero(self.limbs.any(axis=1)).tolist()

    def rho(self) -> RhoResult:
        """The largest count and its indices: with normalized limbs, the
        lexicographic max of the rows read from the top limb down."""
        best = np.arange(len(self.limbs))
        for k in range(self.limbs.shape[1] - 1, -1, -1):
            column = self.limbs[best, k]
            best = best[column == column.max()]
        count = sum(x << (_LIMB_BITS * k) for k, x in enumerate(self.limbs[best[0]].tolist()))
        return RhoResult(count, self.denom_exp, tuple(best.tolist()))

    def write_json(self, G: FiniteGroup, fh) -> None:
        """Write {"denom_exp", "entries": [{"count", "element"}, ...]} over the
        support to the binary file fh, byte for byte as json.dump(..., indent=2,
        sort_keys=True) writes it.  Each `_DUMP_CHUNK` support elements are one
        `%` template: an array of fixed-width entry lines, each with its
        element's hex text (`FiniteGroup.hex_text`) in place, so only the counts
        are formatted by Python, and at most one chunk's bytes are held."""
        support, counts = self.support(), self.counts
        fh.write(b'{\n  "denom_exp": %d,\n  "entries": [' % self.denom_exp)
        head = np.frombuffer(b',\n    {\n      "count": "%d",\n      "element": "', np.uint8)
        tail = np.frombuffer(b'"\n    }', np.uint8)
        for start in range(0, len(support), _DUMP_CHUNK):
            chunk = support[start : start + _DUMP_CHUNK]
            text = G.hex_text(chunk)
            lines = np.concatenate(
                [np.broadcast_to(head, (len(chunk), head.size)), text,
                 np.broadcast_to(tail, (len(chunk), tail.size))],
                axis=1,
            )
            template = lines.ravel()[0 if start else 1 :].tobytes()  # the first entry has no comma
            fh.write(template % tuple([counts[i] for i in chunk]))
        fh.write(b"\n  ]\n}" if support else b"]\n}")


def exact_distribution(G: FiniteGroup, seq: SignedSequence) -> ExactDistribution:
    """Exact law of A_1^{±1} ... A_n^{±1} by n convolution steps over G.

    Step i sends mass from g to both g*A_i and g*A_i^{-1}.  Right
    multiplication is a bijection, so the step is two row gathers,
    nxt[h] = cur[h*A_i^{-1}] + cur[h*A_i], over the right-multiplication
    columns of G.  Counts are kept as base-2^32 limbs (see `_carry`).
    """
    idxs = [G.index_of(e) for e in seq.elements]
    # intp step columns (numpy gathers through int32 indices on a slower path);
    # an inverse's column is its letter's column inverted, h*a -> h, whose
    # entry at the identity is a^-1, so the group's inverses are never read
    cols: dict[int, np.ndarray] = {}
    inverse: dict[int, int] = {}
    for a in dict.fromkeys(idxs):
        if a not in cols:
            cols[a] = G.right_column(a).astype(np.intp)
        ci = np.empty(G.order, dtype=np.intp)
        ci[cols[a]] = np.arange(G.order)
        inverse[a] = int(ci[0])
        cols.setdefault(inverse[a], ci)

    cur = np.zeros((G.order, 1), dtype=np.int64)
    cur[0, 0] = 1
    for step, a in enumerate(idxs, start=1):
        cur = np.take(cur, cols[inverse[a]], axis=0) + np.take(cur, cols[a], axis=0)
        if step % _CARRY_EVERY == 0:
            cur = _carry(cur)
    return ExactDistribution(cur, seq.n)


def constant_walk_counts(s: int, n_max: int) -> Iterator[int]:
    """The largest count of A^{±1} ... A^{±1} (n factors, denominator 2^n) for
    n = 1..n_max in turn, A of order s >= 2.  The walk stays in <A> = Z/s, so its
    law is the binomial law folded mod s: f[k] is the count of A^k, and a step
    sends f[k] to both k+1 and k-1 (one residue when s = 2, where A = A^{-1})."""
    f = [1] + [0] * (s - 1)
    for _ in range(n_max):
        f = [f[k - 1] + f[(k + 1) % s] for k in range(s)]
        yield max(f)


def _carry(limbs: np.ndarray) -> np.ndarray:
    """One vectorized carry pass, in place, over a (|G|, limbs) count array: each
    limb keeps its low 32 bits and adds the high part of the limb below it, and a
    top limb is appended only when the top limb had a high part.  Limbs below 2^63
    come out below 2^32 + 2^31, so `_CARRY_EVERY` doublings stay below 2^63."""
    high = limbs >> _LIMB_BITS
    limbs &= _LIMB_MASK
    limbs[:, 1:] += high[:, :-1]
    if high[:, -1].any():
        limbs = np.concatenate([limbs, high[:, -1:]], axis=1)
    return limbs


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    """Plug-in estimate of the maximum point probability.

    The max-frequency estimator is biased upward for a supremum; the distinct
    product count is reported so callers can judge how spread the law is.
    """

    samples: int
    seed: int
    max_count: int
    distinct_products: int
    top_encoding: str  # hex of the canonical encoding of the modal product

    @property
    def plugin_max_frequency(self) -> float:
        return self.max_count / self.samples

    @property
    def stderr(self) -> float:
        p = self.plugin_max_frequency
        return math.sqrt(p * (1.0 - p) / self.samples)

    def to_json(self) -> dict:
        return {
            "method": "plug-in",
            "samples": self.samples,
            "seed": self.seed,
            "max_count": self.max_count,
            "plugin_max_frequency": self.plugin_max_frequency,
            "distinct_products": self.distinct_products,
            "stderr": self.stderr,
            "top_element": self.top_encoding,
        }


def rho_monte_carlo(
    seq: SignedSequence,
    samples: int,
    seed: int,
    threads: int = 1,
) -> MonteCarloResult:
    """Seeded plug-in estimate of the maximum point probability.

    No enumeration of the ambient group is required.  Output is identical for
    any `threads` value: batch b draws its sign bits from a Philox stream with
    counter (0, 0, 0, b) under key `seed`, and products are counted by key.

    The n steps are cut into blocks of k <= 8 steps (`_block_length`).  A
    block's word has 2^k signed products, and the product a sample takes is
    its k sign bits read as a little-endian number, so a sample is one
    `right_mul` step per block.  Each thread task runs a contiguous run of at
    most `_MC_TASK_BATCHES` batches, holding one batch's sign bits at a time,
    and returns its sorted distinct keys and their counts.  Tasks are merged in
    batch order, at most `threads` results waiting at once, and
    `_MC_DISTINCT_CAP` is checked after each merge.
    """
    from concurrent.futures import ThreadPoolExecutor  # pulls in logging: Monte Carlo only

    if samples < 1:
        raise ValueError("samples must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    elements = seq.elements
    n = seq.n
    arith = RowArith(elements[0])
    letters = {e: i for i, e in enumerate(dict.fromkeys(elements))}
    ids = [letters[e] for e in elements]
    k = _block_length(arith, ids, samples)
    blocks = [tuple(ids[j : j + k]) for j in range(0, n, k)]
    words = list(dict.fromkeys(blocks[: n // k]))  # the distinct full blocks
    rows = arith.rows(letters)  # pairs: A_i^-1 and A_i at 2i and 2i + 1
    pairs = np.stack([arith.inverse(rows), rows], axis=1).reshape(2 * len(rows), -1)
    factors = np.concatenate(
        [_signed_products(arith, pairs, np.array(g)) for g in (words, blocks[n // k :]) if g]
    )
    first_of = {w: i << k for i, w in enumerate(words)}  # a short last block follows them
    first = np.array([first_of.get(b, len(words) << k) for b in blocks], dtype=np.int64)
    times = arith.right_mul(factors, samples * len(blocks))
    n_batches = -(-samples // _MC_BATCH)
    per_task = min(_MC_TASK_BATCHES, -(-n_batches // threads))

    def batch_keys(b: int) -> np.ndarray:
        size = min(_MC_BATCH, samples - b * _MC_BATCH)
        gen = np.random.Generator(np.random.Philox(key=seed % 2**64, counter=[0, 0, 0, b]))
        bits = gen.integers(0, 2, size=(size, n), dtype=np.uint8)
        by_block = np.pad(bits, ((0, 0), (0, -n % k))).reshape(size, -1, k)
        spread = np.pad(by_block, ((0, 0), (0, 0), (0, 8 - k))).reshape(size, -1)  # a byte a block
        index = np.packbits(spread, axis=1, bitorder="little")
        picks = index + first
        return arith.keys(times(factors[picks[:, 0]], picks[:, 1:]))

    def run_task(start: int) -> tuple[np.ndarray, np.ndarray]:
        batches = range(start, min(start + per_task, n_batches))
        return np.unique(np.concatenate([batch_keys(b) for b in batches]), return_counts=True)

    keys, counts = arith.keys(arith.identity)[:0], np.zeros(0)
    starts = range(0, n_batches, per_task)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for group in range(0, len(starts), threads):  # at most `threads` task results at once
            for task_keys, task_counts in pool.map(run_task, starts[group : group + threads]):
                keys, slot = np.unique(np.concatenate([keys, task_keys]), return_inverse=True)
                counts = np.bincount(slot, np.concatenate([counts, task_counts]))  # exact below 2^53
                if len(keys) > _MC_DISTINCT_CAP:
                    raise CapExceeded(f"distinct products exceeded cap {_MC_DISTINCT_CAP}")

    top = int(np.argmax(counts))  # the least key among the maximal counts: keys are sorted
    return MonteCarloResult(
        samples=samples,
        seed=seed,
        max_count=int(counts[top]),
        distinct_products=len(keys),
        top_encoding=arith.encode(arith.decode(keys[top : top + 1])).tobytes().hex(),
    )


def _signed_products(arith: RowArith, pairs: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The 2^L signed products of each of the (W, L) letter words, W * 2^L rows:
    product f of a word multiplies, over its letters i in turn, A_i = pairs[2i + 1]
    where bit t of f is set and A_i^-1 = pairs[2i] where it is not, i the t-th letter."""
    bits = np.arange(1 << words.shape[1])
    rows = np.repeat(arith.identity, len(words) * len(bits), axis=0)
    for t, letter in enumerate(words.T):
        rows = arith.compose(rows, pairs[(2 * letter[:, None] + (bits >> t & 1)).ravel()])
    return rows


def _block_length(arith: RowArith, ids: list[int], samples: int) -> int:
    """Steps per sign block of `rho_monte_carlo` on the letter sequence `ids`:
    the largest k <= 8 whose block products get `right_mul` tables
    (`RowArith.tables_fit`, asked for samples * ceil(n/k) row products); if no
    k does, the largest k whose block products' entries fit the same bound."""
    n = len(ids)
    ks = range(_MC_BLOCK, 0, -1)
    work = {k: samples * -(-n // k) for k in ks}
    products = {
        k: sum(1 << len(w) for w in {tuple(ids[j : j + k]) for j in range(0, n, k)}) for k in ks
    }
    tabled = [k for k in ks if arith.tables_fit(products[k], work[k])]
    composed = [k for k in ks if products[k] * arith.entry_count <= min(ROW_TABLE_BOUND, work[k])]
    return (tabled or composed or [1])[0]


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def central_binomial_bound(n: int) -> Fraction:
    """Exact binomial ceiling C(n, floor(n/2)) / 2^n for the abelian walk."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_binomial_length(n)
    return Fraction(math.comb(n, n // 2), 1 << n)


def order_length_bound(s: int, n_or_N: int) -> tuple[float, bool]:
    """141 * max(1/s, 1/sqrt(n)); second component flags a vacuous (>= 1) bound."""
    if s < 2 or n_or_N < 2:
        raise ValueError("need s >= 2 and n >= 2")
    value = 141.0 * max(1 / s, 1.0 / math.sqrt(n_or_N))  # int / int: no float overflow for any s
    return value, value >= 1.0


def rho_below_order_length_bound(rho: Fraction, s: int, n_or_N: int) -> bool:
    """Exact test rho <= 141*max(1/s, 1/sqrt(n)) without floating point."""
    return rho * s <= 141 or rho * rho * n_or_N <= 141 * 141


def prime_order_length_bound(p: int, s: int, n: int) -> float:
    """2/p + 120/s + 19/sqrt(n) for walks in a projective group over Z/p."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if s < 2 or n < 2:
        raise ValueError("need s >= 2 and n >= 2")
    return 2 / p + 120 / s + 19.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# the scalar (unipotent top-corner) walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedSumResult:
    """Exact maximum point probability of S = sum ±a_i versus 1/(4K sqrt(n))."""

    n: int
    K: int
    rho: Fraction
    top_sum: int
    bound_holds: bool


def signed_sum_check(a_list, K: int | None = None) -> SignedSumResult:
    """Exact rho of the signed integer sum and the 1/(4K sqrt(n)) lower bound.

    Convolution runs over coefficients packed into one big integer (slot width
    n + 8 bits), which keeps the n-step update allocation-free and exact.
    """
    a = [int(x) for x in a_list]
    n = len(a)
    if n < 1:
        raise ValueError("need at least one term")
    if any(x == 0 for x in a):
        raise SignedWalkError("terms must be nonzero")
    maxabs = max(abs(x) for x in a)
    K = maxabs if K is None else int(K)
    if K < maxabs:
        raise ValueError("K must dominate every |a_i|")
    check_signed_sum_size(n, K)

    width = n + 8
    mask = (1 << width) - 1
    packed = 1
    for x in a:
        packed *= (1 << (width * (K + x))) + (1 << (width * (K - x)))
    best, best_at = 0, 0
    for d in range(2 * n * K + 1):
        c = (packed >> (width * d)) & mask
        if c > best:
            best, best_at = c, d - n * K
    rho = Fraction(best, 1 << n)
    holds = 16 * K * K * n * rho * rho >= 1
    return SignedSumResult(n=n, K=K, rho=rho, top_sum=best_at, bound_holds=holds)


# ---------------------------------------------------------------------------
# sequence files
# ---------------------------------------------------------------------------


def sequence_from_spec(
    spec: dict, G: FiniteGroup | None = None, ambient: dict | None = None
) -> SignedSequence:
    """Sequence file contract: elements are indices or inline element specs.

    Without an enumerated group G every entry must be inline; its kind comes
    from `ambient` (a group spec) when given, else from a "kind"/"p" pair in the
    sequence spec itself, and bare permutation image lists are self-describing.
    """
    items = spec_field(spec, "elements", list)
    if G is not None:
        elems = elements_from_entries(G.variant, items, G.p, G.table, group=G)
    else:
        gspec = ambient if ambient is not None else spec
        kind = gspec.get("kind", "permutation")
        p = spec_prime(gspec) if kind == "matrix_mod_p" else None
        if any(map(is_spec_int, items)):
            raise ValueError("index-based sequence entries need an enumerated group")
        elems = elements_from_entries(kind, items, p)
    repeat = spec.get("repeat", 1)
    if not is_spec_int(repeat) or repeat < 1:
        raise ValueError("repeat must be >= 1")
    seq = SignedSequence(tuple(elems))  # the entries' own errors come first
    check_walk_length(seq.n * repeat)  # before the repeated tuple is built
    return SignedSequence(seq.elements * repeat)
