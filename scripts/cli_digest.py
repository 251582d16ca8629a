#!/usr/bin/env python3
"""Digest of the CLI's observable behaviour on a fixed command set.

Runs every subcommand on fixed inputs and prints one line per command: the
exit code and the sha256 (first 16 hex digits) of stdout, of stderr and of
every file the command wrote (`--dump-dist`, `--out`).  Two source trees
behave alike on this set exactly when their digests are equal, so comparing a
change with its parent is one `diff`:

    python scripts/cli_digest.py > after.txt
    python scripts/cli_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt

The inputs are written once per run from this checkout: the `tests/test_cli.py`
fixture groups, the seed-11 benchmark inputs (`perfbench/inputs.py`, imported
read-only) and a few Monte-Carlo sequences of wide or large-prime matrices.
Commands run one at a time with `--src` (default: this checkout's `src/`) on
PYTHONPATH, from a temporary directory with relative paths, so no line depends
on where the run happens.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from signedwalk import catalog  # noqa: E402
from signedwalk.elements import MatrixElement  # noqa: E402
from signedwalk.errors import NotInvertible  # noqa: E402

BENCH_SEED = 11
MINUS_I_MOD_17 = [[16 if i == j else 0 for j in range(4)] for i in range(4)]
# two non-associative 5-element loops with identity 0 (refused as tables)
LOOP_L1 = [[0, 1, 2, 3, 4], [1, 2, 4, 0, 3], [2, 3, 0, 4, 1], [3, 4, 1, 2, 0], [4, 0, 3, 1, 2]]
LOOP_L2 = [[0, 1, 2, 3, 4], [1, 3, 4, 2, 0], [2, 0, 1, 4, 3], [3, 4, 0, 1, 2], [4, 2, 3, 0, 1]]


def _random_invertible(rng: np.random.Generator, p: int, m: int) -> list[list[int]]:
    while True:
        rows = rng.integers(0, p, size=(m, m)).tolist()
        try:
            MatrixElement.from_rows(rows, p)
        except NotInvertible:
            continue
        return rows


def write_inputs(d: Path) -> None:
    """Every input file of the command set, under d."""

    def put(name: str, data) -> None:
        (d / name).write_text(json.dumps(data), encoding="utf-8")

    for name in ("s3", "q8", "s4", "sl2_3", "sl2_5"):
        put(f"{name}.json", catalog.group_spec(name))
    put("seq.json", {"elements": [1, 2, 3, 1]})
    put("mats.json", [[[1, 1], [0, 1]]])
    put("c11.json", {"kind": "permutation", "degree": 11,
                     "generators": [[(i + 1) % 11 for i in range(11)]]})
    put("seq9.json", {"elements": [1], "repeat": 9})
    put("inline_seq.json", {"elements": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]})
    put("raw_seq.json", {"elements": [[1, 2, 3, 0], [1, 0, 2, 3]], "repeat": 3})
    put("raw_mats.json", {"kind": "matrix_mod_p", "p": 5,
                          "elements": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]})
    put("wide.json", {"kind": "matrix_mod_p", "p": 17, "m": 4, "generators": [MINUS_I_MOD_17]})
    put("wide_seq.json", {"kind": "matrix_mod_p", "p": 17, "elements": [MINUS_I_MOD_17]})
    images = [(i + 1) % 300 for i in range(300)]
    put("perm300_seq.json", {"elements": [images]})
    put("loop_l1.json", {"kind": "table", "table": LOOP_L1, "generators": [4]})
    put("loop_l2.json", {"kind": "table", "table": LOOP_L2, "generators": [2, 4]})
    put("z6_table.json", {"kind": "table", "table": [[(i + j) % 6 for j in range(6)] for i in range(6)],
                          "generators": [1]})
    # elementary abelian groups with many classes: (Z/2)^6 and (Z/3)^4 on 12 points
    for name, k, copies in (("z2_6", 2, 6), ("z3_4", 3, 4)):
        put(f"{name}.json", {"kind": "permutation", "degree": k * copies, "generators": [
            [b * k + (i + 1) % k if b == c else b * k + i for b in range(copies) for i in range(k)]
            for c in range(copies)
        ]})
    put("singular_gen.json", {"kind": "matrix_mod_p", "p": 5, "m": 2,
                              "generators": [[[1, 1], [0, 1]], [[1, 2], [2, 4]]]})
    (d / "bad.json").write_text("{not json", encoding="utf-8")

    rng = np.random.default_rng(17)
    put("mod17_seq.json", {"kind": "matrix_mod_p", "p": 17, "repeat": 4,
                           "elements": [_random_invertible(rng, 17, 4) for _ in range(3)]})
    a = pow(2, 1030 // 5, 1031)  # order 5 (2 is a primitive root mod 1031)
    put("mod1031_seq.json", {"kind": "matrix_mod_p", "p": 1031, "repeat": 3, "elements": [
        [[a, 0], [0, pow(a, -1, 1031)]], [[0, 1], [1030, 0]], _random_invertible(rng, 1031, 2)
    ]})
    put("mod17_seven_seq.json", {"kind": "matrix_mod_p", "p": 17,
                                 "elements": [_random_invertible(rng, 17, 4) for _ in range(7)]})

    rng = np.random.default_rng(BENCH_SEED)
    spec, letters = inputs.sl2_49_spec(rng)
    put("sl2_49.json", spec)
    put("sl2_49_seq.json", inputs.sl2_49_sequence(rng, letters, 4, 16))
    put("s6.json", inputs.s6_spec(np.random.default_rng(BENCH_SEED)))


def commands() -> list[tuple[str, list[str]]]:
    """(label, argv); paths are relative to the input directory, and a command
    writes its files under out/<label>/."""
    cmds: list[tuple[str, list[str]]] = []

    def add(label: str, *argv: str) -> None:
        cmds.append((label, [a.replace("OUT/", f"out/{label}/") for a in argv]))

    small = ("s3", "q8", "s4", "sl2_3", "sl2_5")
    add("order_s3", "order", "--group", "s3.json", "--element", "[1,0,2]")
    add("order_sl2_5", "order", "--group", "sl2_5.json", "--element", "[[1,1],[0,1]]")
    add("order_singular", "order", "--group", "sl2_5.json", "--element", "[[1,2],[2,4]]")
    add("closure_singular_gen", "closure", "--group", "singular_gen.json")
    add("closure_z6_table", "closure", "--group", "z6_table.json", "--elements")
    add("chartab_z6_table", "chartab", "--group", "z6_table.json")
    for g in ("z2_6", "z3_4"):
        add(f"chartab_{g}", "chartab", "--group", f"{g}.json")
        add(f"mult_bounds_{g}", "mult-bounds", "--group", f"{g}.json")
    for g in small:
        add(f"closure_{g}", "closure", "--group", f"{g}.json", "--elements")
        add(f"chartab_{g}", "chartab", "--group", f"{g}.json")
    add("closure_wide", "closure", "--group", "wide.json", "--elements")
    add("closure_cap", "closure", "--group", "sl2_5.json", "--cap", "10")
    add("rho_sl2_5", "rho", "--group", "sl2_5.json", "--seq", "seq.json",
        "--dump-dist", "OUT/law.json")
    add("rho_c11", "rho", "--group", "c11.json", "--seq", "seq9.json")
    add("rho_mc_fallback", "rho", "--group", "sl2_5.json", "--seq", "inline_seq.json",
        "--cap", "10", "--samples", "2000")
    for t in ("1", "4"):
        add(f"mc_sl2_5_t{t}", "mc", "--group", "sl2_5.json", "--seq", "seq.json",
            "--samples", "30000", "--seed", "5", "--threads", t)
    add("mc_raw_perm", "mc", "--seq", "raw_seq.json", "--samples", "5000", "--seed", "1")
    add("mc_raw_mats", "mc", "--seq", "raw_mats.json", "--samples", "5000", "--seed", "1")
    add("mc_wide", "mc", "--seq", "wide_seq.json", "--samples", "1000")
    add("mc_perm300", "mc", "--seq", "perm300_seq.json", "--samples", "1000")
    # 4x4 mod 17 (byte keys) through row-code tables (50,000 * 12 products pay
    # for 6 * 17^4 entries) and composed (14 * 17^4 entries exceed the table
    # bound); 2x2 mod 1031 composes entries (p^m above the bound)
    for seq, samples in (("mod17", "50000"), ("mod17_seven", "20000"), ("mod1031", "20000")):
        for t in ("1", "2"):
            add(f"mc_{seq}_t{t}", "mc", "--seq", f"{seq}_seq.json", "--samples", samples,
                "--seed", "3", "--threads", t, "--out", "OUT/mc.json")
    add("irreps_sl2_3", "irreps", "--group", "sl2_3.json", "--seed", "2024", "--dump-matrices")
    # C11: five pairs of complex-conjugate characters share first-pass eigenspaces
    add("irreps_c11", "irreps", "--group", "c11.json", "--seed", "1")
    for g in ("s3", "q8", "sl2_3"):
        add(f"fourier_{g}", "fourier-check", "--group", f"{g}.json", "--count", "4", "--seed", "1")
    add("mult_bounds_sl2_5", "mult-bounds", "--group", "sl2_5.json")
    # window statuses: s3 at 1/10 all hypothesis_failed; q8 at 2/3 all vacuous;
    # sl2_3 at 1/3 hypothesis_failed and ok; s4 at 9/10 hypothesis_failed and
    # vacuous; sl2_5 at 2/3 all three
    for g, alpha in (("s3", "1/10"), ("q8", "2/3"), ("sl2_3", "1/3"), ("s4", "9/10"),
                     ("sl2_5", "2/3")):
        add(f"mult_bounds_{g}_{alpha.replace('/', '_')}", "mult-bounds", "--group", f"{g}.json",
            "--alpha", alpha)
    add("svd_props", "svd-props", "--draws", "50", "--unitary-draws", "5", "--seed", "3")
    add("diag_json", "diag", "--group", "sl2_5.json", "--seq", "seq.json", "--dim", "5")
    add("diag_csv", "diag", "--group", "sl2_5.json", "--seq", "seq.json", "--dim", "5",
        "--format", "csv", "--out", "OUT/diag.csv")
    add("embed", "embed", "--matrices", "mats.json", "--n", "5", "--p-min", "2")
    add("bounds", "bounds", "--s", "150", "--n", "400", "--p", "149")
    add("example2_a", "example2", "--a", "1,2")
    add("example2_k", "example2", "--k", "3", "--n", "100", "--seed", "2")
    add("sweep_csv", "sweep", "--group", "sl2_5.json", "--element", "[[1,1],[0,1]]",
        "--n-max", "6", "--format", "csv")
    add("sweep_json", "sweep", "--group", "sl2_5.json", "--element", "[[1,1],[0,1]]",
        "--n-max", "6")
    add("bad_json", "rho", "--group", "bad.json", "--seq", "seq.json")
    add("bad_flag", "bounds", "--s", "3", "--n", "4", "--seed", "1")
    add("closure_loop_l1", "closure", "--group", "loop_l1.json", "--cap", "1000")
    add("closure_loop_l2", "closure", "--group", "loop_l2.json")

    add("bench_closure_sl2_49", "closure", "--group", "sl2_49.json")
    add("bench_rho_sl2_49", "rho", "--group", "sl2_49.json", "--seq", "sl2_49_seq.json",
        "--dump-dist", "OUT/law.json")
    for t in ("1", "2"):
        add(f"bench_mc_sl2_49_t{t}", "mc", "--seq", "sl2_49_seq.json", "--seed", str(BENCH_SEED),
            "--samples", "100000", "--threads", t)
    add("bench_chartab_sl2_49", "chartab", "--group", "sl2_49.json")
    add("bench_mult_bounds_sl2_49", "mult-bounds", "--group", "sl2_49.json", "--alpha", "1/6")
    add("bench_closure_s6", "closure", "--group", "s6.json")
    add("bench_irreps_s6", "irreps", "--group", "s6.json", "--seed", str(BENCH_SEED))
    add("bench_fourier_s6", "fourier-check", "--group", "s6.json", "--seed", str(BENCH_SEED))
    return cmds


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--src", default=str(ROOT / "src"), help="source tree to run (default: ./src)")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        for label, argv in commands():
            out_dir = work / "out" / label
            out_dir.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, "-m", "signedwalk", *argv], cwd=work, env=env, capture_output=True
            )
            files = " ".join(
                f"{f.name}={_sha(f.read_bytes())}" for f in sorted(out_dir.iterdir())
            )
            print(
                f"{label} exit={proc.returncode} stdout={_sha(proc.stdout)} "
                f"stderr={_sha(proc.stderr)} {files}".rstrip(),
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
