"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy and permutation arithmetic, so generating the
inputs exercises none of the signedwalk layers the benchmark measures.  The
same seed always gives the same files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

P = 7  # SL_2(49) is realised as 4x4 matrices over Z/7
NONSQUARE = 3  # least non-square mod 7: F_49 = F_7[t], t^2 = 3
SL2_49_ORDER = 49 * (49 * 49 - 1)
S6_ORDER = 720
WORD_LENGTH = 40


def _embed(entries_2x2) -> np.ndarray:
    """4x4 matrix over Z/7 of a 2x2 matrix over F_49; a + b*t -> [[a, 3b], [b, a]]."""
    out = np.zeros((4, 4), dtype=np.int64)
    for bi in range(2):
        for bj in range(2):
            a, b = entries_2x2[bi][bj]
            out[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2] = [[a, NONSQUARE * b], [b, a]]
    return out % P


def _transvections() -> list[tuple[np.ndarray, np.ndarray]]:
    """The four elementary transvections of SL_2(49) (offsets 1 and t), each
    paired with its inverse (the same transvection with the offset negated)."""
    one, zero = (1, 0), (0, 0)
    pairs = []
    for x in ((1, 0), (0, 1)):
        neg = (-x[0], -x[1])
        pairs.append((_embed([[one, x], [zero, one]]), _embed([[one, neg], [zero, one]])))
        pairs.append((_embed([[one, zero], [x, one]]), _embed([[one, zero], [neg, one]])))
    return pairs


def _random_word(rng: np.random.Generator, letters) -> tuple[np.ndarray, np.ndarray]:
    """A random word in the letters (and their inverses) and the word's inverse."""
    word = np.eye(4, dtype=np.int64)
    inverse = np.eye(4, dtype=np.int64)
    for _ in range(WORD_LENGTH):
        g, g_inv = letters[int(rng.integers(len(letters)))]
        if rng.integers(2):
            g, g_inv = g_inv, g
        word = word @ g % P
        inverse = g_inv @ inverse % P
    return word, inverse


def sl2_49_spec(rng: np.random.Generator) -> tuple[dict, list]:
    """Group spec for SL_2(49) on the transvections conjugated by a random group
    element (same group, different generating set and enumeration order)."""
    letters = _transvections()
    x, x_inv = _random_word(rng, letters)
    gens = [x @ g % P @ x_inv % P for g, _ in letters]
    spec = {"kind": "matrix_mod_p", "p": P, "m": 4, "generators": [g.tolist() for g in gens]}
    return spec, letters


def sl2_49_sequence(rng: np.random.Generator, letters, distinct: int, repeat: int) -> dict:
    """`distinct` different non-trivial random elements, repeated `repeat` times.

    The file carries "kind" and "p", so `mc` can read it without --group.
    """
    elements: list[list[list[int]]] = []
    while len(elements) < distinct:
        word, _ = _random_word(rng, letters)
        rows = word.tolist()
        if not np.array_equal(word, np.eye(4, dtype=np.int64)) and rows not in elements:
            elements.append(rows)
    return {"kind": "matrix_mod_p", "p": P, "elements": elements, "repeat": repeat}


def s6_spec(rng: np.random.Generator) -> dict:
    """S6 from the transposition (0 1) and the 6-cycle, both conjugated by one
    random permutation, which keeps them a generating pair."""
    pi = rng.permutation(6)
    gens = []
    for g in (np.array([1, 0, 2, 3, 4, 5]), np.roll(np.arange(6), -1)):
        conj = np.empty(6, dtype=np.int64)
        conj[pi] = pi[g]
        gens.append(conj.tolist())
    return {"kind": "permutation", "degree": 6, "generators": gens}


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)
