#!/usr/bin/env python3
"""Eigenvalue-multiplicity windows for SL_2 over a prime-squared field.

Enumerates SL_2(p^2) as 4x4 matrices over Z/p, computes its character table,
and checks that every eigenvalue multiplicity of every nonlinear irreducible
at every noncentral class sits strictly inside (1/k1 - a, 1/k1 + a) * degree
with a = 1/(p - 1) (the window half-width for a field of size q = p^2).

    python scripts/multiplicity_report.py --p 7
"""

import argparse
import sys
import time
from fractions import Fraction

from signedwalk import catalog
from signedwalk.chartable import (
    check_multiplicity_bounds,
    dixon_character_table,
    max_character_ratio,
)
from signedwalk.groups import close_generators


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=7, help="prime p; the field has q = p^2")
    args = ap.parse_args()

    q = args.p * args.p
    alpha = Fraction(1, args.p - 1)  # 1/(sqrt(q) - 1)
    t0 = time.time()
    G = close_generators(catalog.sl2_prime_squared_generators(args.p))
    print(f"|SL_2({q})| = {G.order}  (enumerated in {time.time() - t0:.1f}s)")
    table = dixon_character_table(G)
    print(f"conjugacy classes: {table.num_classes}")
    print(f"character degrees: {table.degrees}")
    print(f"sum of squared degrees: {sum(d * d for d in table.degrees)}")
    ratio = max_character_ratio(table)
    print(f"max |chi(x)|/chi(1) over noncentral x: {ratio[0]:.6f} (alpha = {float(alpha):.6f})")
    report = check_multiplicity_bounds(table, alpha)
    print(
        f"windows checked: {len(report.checked)}  "
        f"hypothesis failures: {report.count('hypothesis_failed')}  "
        f"vacuous: {report.count('vacuous')}  all pass: {report.all_pass}"
    )
    print(f"total {time.time() - t0:.1f}s")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
