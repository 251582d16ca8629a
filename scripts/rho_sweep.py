#!/usr/bin/env python3
"""Sweep the walk length and compare exact rho against the closed-form bounds.

Writes CSV rows (n, rho, binomial, order_length, vacuous) for an all-equal
walk driven by one element of the requested order, e.g.

    python scripts/rho_sweep.py --order 12 --n-max 48 --out rho_vs_n.csv
"""

import argparse
import csv
import sys

from signedwalk import catalog
from signedwalk.groups import close_generators
from signedwalk.walk import (
    SignedSequence,
    central_binomial_bound,
    exact_distribution,
    order_length_bound,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=12, help="element order s")
    ap.add_argument("--n-max", type=int, default=64)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    G = close_generators(catalog.cyclic_generators(args.order))
    a = G.element(1)
    rows = []
    for n in range(1, args.n_max + 1):
        rho = exact_distribution(G, SignedSequence.constant(a, n)).rho()
        binom = float(central_binomial_bound(n))
        if n >= 2 and args.order >= 2:
            bound, vac = order_length_bound(args.order, n)
        else:
            bound, vac = float("nan"), True
        rows.append((n, rho.value, binom, bound, vac))

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    writer.writerow(("n", "rho", "binomial", "order_length", "vacuous"))
    writer.writerows(rows)
    if args.out:
        out.close()
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
