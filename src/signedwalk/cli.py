"""Command-line surface: batch computation, verification suites, CSV/JSON emission.

Exit codes: 0 success or verified pass, 1 verification failure, 2 input error
(any `SignedWalkError`, `ValueError` or `OSError`), 3 resource cap (a
`CapExceeded`; see `errors`).  Output is deterministic for a fixed (config,
seed) and BLAS thread count (the last bits of `eigh` depend on it); JSON is
emitted with sorted keys and no timestamps, so such reruns are byte-identical.
Each subcommand accepts only the flags its handler reads; handlers take the
parsed argparse namespace.  Of the engines only `groups` loads with this
module; a handler imports the ones it runs (walk, chartable, irreps, spectral,
embed) when it is called, so no command pays start-up for an engine it leaves
idle.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .elements import same_family
from .errors import CapExceeded, SignedWalkError
from .groups import (
    DEFAULT_CLOSURE_CAP,
    FiniteGroup,
    element_from_spec,
    element_order,
    generators_from_spec,
    group_from_spec,
    is_spec_int,
    spec_field,
)

if TYPE_CHECKING:
    from .walk import SignedSequence

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args: argparse.Namespace, payload, csv_rows=None, csv_header=None) -> None:
    if csv_rows is not None and args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _group(args: argparse.Namespace) -> FiniteGroup:
    return group_from_spec(_load_json(args.group), cap=args.cap)


def _bounds_payload(seq: SignedSequence, p: int | None) -> dict:
    from .walk import central_binomial_bound, order_length_bound, prime_order_length_bound

    s = seq.min_order
    n = seq.n
    out: dict = {"binomial": _fraction_json(central_binomial_bound(n))}
    if s >= 2 and n >= 2:
        value, vacuous = order_length_bound(s, n)
        out["order_length"] = {"value": value, "vacuous": vacuous, "s": s, "n": n}
    if p is not None and s >= 2 and n >= 2:
        out["prime_order_length"] = {
            "value": prime_order_length_bound(p, s, n),
            "p": p,
        }
    return out


def _fraction_json(fr: Fraction) -> dict:
    denom_exp = fr.denominator.bit_length() - 1
    if 1 << denom_exp != fr.denominator:
        return {"numerator": str(fr.numerator), "denominator": str(fr.denominator)}
    return {"count": str(fr.numerator), "denom_exp": denom_exp}


def _rho_json(rho) -> dict:
    # unreduced on purpose: denom_exp is the walk length
    return {"count": str(rho.count), "denom_exp": rho.denom_exp}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_order(args: argparse.Namespace) -> int:
    data = json.loads(args.element)
    G = _group(args)
    _emit(args, {"order": element_order(G, element_from_spec(G, data))})
    return EXIT_OK


def cmd_closure(args: argparse.Namespace) -> int:
    G = _group(args)
    payload = {"order": G.order, "generators": list(G.generator_indices)}
    if args.elements:
        payload["elements"] = G.hex_encodings(range(G.order))
    _emit(args, payload)
    return EXIT_OK


def cmd_rho(args: argparse.Namespace) -> int:
    from .walk import exact_distribution, sequence_from_spec

    seq_spec = _load_json(args.seq)
    G = _group(args)
    seq = sequence_from_spec(seq_spec, G)
    dist = exact_distribution(G, seq)
    rho = dist.rho()
    payload = {
        "method": "exact",
        "rho": _rho_json(rho),
        "rho_value": rho.value,
        "maximizers": G.hex_encodings(rho.maximizers),
        "bounds": _bounds_payload(seq, G.p),
    }
    if args.dump_dist:
        with open(args.dump_dist, "wb") as fh:
            dist.write_json(G, fh)
    _emit(args, payload)
    return EXIT_OK


def cmd_mc(args: argparse.Namespace) -> int:
    from .walk import rho_monte_carlo, sequence_from_spec

    group_spec = G = None
    if args.group:
        group_spec = _load_json(args.group)
        same_family(generators_from_spec(group_spec))  # refuse an empty or malformed spec
    seq_spec = _load_json(args.seq)
    # inline entries need only the spec's kind and p: enumerate for indices only
    if group_spec is not None and any(map(is_spec_int, spec_field(seq_spec, "elements", list))):
        G = group_from_spec(group_spec, cap=args.cap)
    seq = sequence_from_spec(seq_spec, G, group_spec)
    mc = rho_monte_carlo(seq, args.samples, args.seed, threads=args.threads)
    _emit(args, mc.to_json())
    return EXIT_OK


def cmd_chartab(args: argparse.Namespace) -> int:
    from .chartable import dixon_character_table

    table = dixon_character_table(_group(args))
    _emit(args, table.to_json())
    return EXIT_OK


def cmd_irreps(args: argparse.Namespace) -> int:
    from .irreps import decompose_regular

    G = _group(args)
    irreps = decompose_regular(G, seed=args.seed)
    payload = {
        "dimensions": [r.dim for r in irreps],
        "sum_of_squares": sum(r.dim**2 for r in irreps),
        "order": G.order,
    }
    if args.dump_matrices:
        payload["matrices"] = [
            [[[float(x.real), float(x.imag)] for x in row] for row in mat]
            for r in irreps
            for mat in r.matrices
        ]
    _emit(args, payload)
    return EXIT_OK


def cmd_fourier_check(args: argparse.Namespace) -> int:
    from .irreps import decompose_regular, fourier_distribution
    from .walk import SignedSequence, exact_distribution

    G = _group(args)
    if G.order == 1:
        raise ValueError("fourier-check draws non-trivial elements; the group is trivial (|G| = 1)")
    irreps = decompose_regular(G, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.count):
        n = int(rng.integers(1, 17))
        seq = SignedSequence(
            tuple(G.element(int(rng.integers(1, G.order))) for _ in range(n))
        )
        fd = fourier_distribution(G, irreps, seq)
        ed = exact_distribution(G, seq)
        # the counts stay below 2^53 and the scale is a power of two, so each
        # limb sum and each quotient is exact
        counts = ed.limbs @ 2.0 ** (32 * np.arange(ed.limbs.shape[1]))
        dev = float(np.max(np.abs(fd - counts / (1 << seq.n))))
        worst = max(worst, dev)
    _emit(args, {"max_abs_deviation": worst, "sequences": args.count, "tolerance": args.tol})
    return EXIT_OK if worst <= args.tol else EXIT_VERIFY_FAIL


def cmd_mult_bounds(args: argparse.Namespace) -> int:
    from .chartable import check_multiplicity_bounds, dixon_character_table, max_character_ratio

    table = dixon_character_table(_group(args))
    report = check_multiplicity_bounds(table, args.alpha)
    ratio = max_character_ratio(table)
    payload = {
        "alpha": str(args.alpha),
        "max_character_ratio": None if ratio is None else ratio[0],
        "entries": len(report.entries),
        "hypothesis_failed": report.count("hypothesis_failed"),
        "vacuous": report.count("vacuous"),
        "all_pass": report.all_pass,
        "no_nonlinear_characters": ratio is None,
    }
    _emit(args, payload)
    return EXIT_OK if report.all_pass else EXIT_VERIFY_FAIL


def cmd_svd_props(args: argparse.Namespace) -> int:
    from .spectral import (
        cos_spectrum,
        product_singular_bounds,
        random_unitary,
        trace_vs_singular_sum,
        trig_inequality_scan,
    )

    rng = np.random.default_rng(args.seed)
    ok = True
    for _ in range(args.draws):
        d = int(rng.integers(2, 21))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ok &= trace_vs_singular_sum(M).passed
        ok &= product_singular_bounds(M, M2).passed
    worst_dev = 0.0
    for d in range(2, 17):
        for _ in range(args.unitary_draws):
            _, _, dev = cos_spectrum(random_unitary(d, rng))
            worst_dev = max(worst_dev, dev)
    ok &= worst_dev <= 1e-8
    v1, v2, v3 = trig_inequality_scan(1e-4)
    ok &= max(v1, v2, v3) <= 1e-12
    _emit(
        args,
        {
            "matrix_draws": args.draws,
            "unitary_draws_per_size": args.unitary_draws,
            "cos_spectrum_worst_dev": worst_dev,
            "trig_violations": [v1, v2, v3],
            "all_pass": bool(ok),
        },
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_diag(args: argparse.Namespace) -> int:
    from .irreps import decompose_regular
    from .spectral import cascade_diagnostics
    from .walk import sequence_from_spec

    G = _group(args)
    if G.variant != "matrix_mod_p":
        raise ValueError("cascade diagnostics need a matrix group (for p and m)")
    seq = sequence_from_spec(_load_json(args.seq), G)
    irreps = decompose_regular(G, seed=args.seed)
    want = args.dim
    rep = None
    for r in irreps:
        if want is None or r.dim == want:
            rep = r if want is not None or rep is None or r.dim > rep.dim else rep
    if rep is None:
        raise ValueError(f"no irreducible of dimension {want}")
    diag = cascade_diagnostics(G.p, G.m, G, rep, seq, G.element(args.target))
    payload = {
        "p": diag.p,
        "m": diag.m,
        "s": diag.s,
        "n": diag.n,
        "dim": diag.dim,
        "dim_threshold_squared": str(diag.dim_threshold_squared),
        "l0": diag.l0,
        "element_orders": list(diag.element_orders),
        "multiplicity_caps": list(diag.multiplicity_caps),
        "observed_trace_abs": diag.observed_trace_abs,
        "trace_bound": diag.trace_bound,
        "small_dim_mass_bound": diag.small_dim_mass_bound,
        "prefix_product_ok": diag.prefix_ok,
    }
    _emit(
        args,
        payload,
        csv_rows=diag.csv_rows(),
        csv_header=("l", "observed_s_l", "predicted_bound", "for_s6_lhs", "for_s6_rhs"),
    )
    return EXIT_OK if diag.prefix_ok else EXIT_VERIFY_FAIL


def cmd_embed(args: argparse.Namespace) -> int:
    from .embed import embed_mod_p, rational_matrices_from_json

    mats = rational_matrices_from_json(_load_json(args.matrices))
    res = embed_mod_p(mats, args.n, p_min=args.p_min)
    _emit(args, res.to_json())
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    from .walk import (
        central_binomial_bound,
        check_binomial_length,
        order_length_bound,
        prime_order_length_bound,
    )

    check_binomial_length(args.n)  # first: sqrt(n) overflows a float past 10^308
    value, vacuous = order_length_bound(args.s, args.n)
    payload = {
        "binomial": _fraction_json(central_binomial_bound(args.n)),
        "order_length": {"value": value, "vacuous": vacuous},
    }
    if args.p is not None:
        payload["prime_order_length"] = {"value": prime_order_length_bound(args.p, args.s, args.n)}
    _emit(args, payload)
    return EXIT_OK


def cmd_example2(args: argparse.Namespace) -> int:
    from .walk import check_signed_sum_size, signed_sum_check

    if args.a is not None:
        res = signed_sum_check([int(x) for x in args.a.split(",")], K=args.k)
    else:
        K = 3 if args.k is None else args.k
        check_signed_sum_size(args.n, K)  # before the n terms are drawn
        rng = np.random.default_rng(args.seed)
        signs = rng.integers(0, 2, size=args.n) * 2 - 1
        mags = rng.integers(1, K + 1, size=args.n)
        res = signed_sum_check(list(signs * mags), K=K)
    payload = {
        "n": res.n,
        "K": res.K,
        "rho": _fraction_json(res.rho),
        "rho_value": float(res.rho),
        "top_sum": res.top_sum,
        "lower_bound": 1.0 / (4.0 * res.K * math.sqrt(res.n)),
        "bound_holds": res.bound_holds,
    }
    _emit(args, payload)
    return EXIT_OK if res.bound_holds else EXIT_VERIFY_FAIL


def cmd_sweep(args: argparse.Namespace) -> int:
    from .walk import (
        central_binomial_bound,
        check_walk_length,
        constant_walk_counts,
        order_length_bound,
    )

    data = json.loads(args.element)
    G = _group(args)
    gi = G.index_of(element_from_spec(G, data))
    if gi == 0:
        raise ValueError("sweep element must be non-trivial")
    s = element_order(G, gi)  # >= 2: the element is non-trivial
    check_walk_length(args.n_max)
    payload = []
    for n, count in enumerate(constant_walk_counts(s, args.n_max), start=1):
        bound, vac = order_length_bound(s, n) if n >= 2 else (float("nan"), True)
        payload.append(
            {
                "n": n,
                "rho": {"count": str(count), "denom_exp": n},
                "rho_value": float(Fraction(count, 1 << n)),
                "binomial": float(central_binomial_bound(n)),
                "order_length": bound,
                "vacuous": vac,
            }
        )
    columns = ("n", "rho_value", "binomial", "order_length", "vacuous")
    rows = [tuple(row[c] for c in columns) for row in payload]
    # the CSV heads the rho_value column "rho"
    _emit(args, payload, csv_rows=rows, csv_header=("n", "rho") + columns[2:])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _checked(convert, ok, rule: str):
    """argparse type: `convert(text)`, rejected (exit 2) unless it is `rule`."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {rule}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def _fraction(text: str) -> Fraction:
    """argparse type: a fraction such as 1/6 (exit 2 on a zero denominator too)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text} is not a fraction") from None


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, ">= 1")

# the flags several subcommands share; each subcommand names the ones it reads
_SHARED = {
    "group": dict(required=True, help="group spec JSON path"),
    "seq": dict(required=True, help="sequence spec JSON path"),
    "cap": dict(type=_AT_LEAST_ONE, default=DEFAULT_CLOSURE_CAP, help="closure size cap"),
    "samples": dict(type=_AT_LEAST_ONE, default=100_000, help="Monte-Carlo samples"),
    "seed": dict(type=_checked(int, lambda v: 0 <= v < 2**64, "in [0, 2**64)"), default=0),
    "threads": dict(type=_AT_LEAST_ONE, default=1, help="Monte-Carlo worker threads"),
    "out": dict(default=None, help="write the output to this path instead of stdout"),
    "format": dict(choices=("json", "csv"), default="json"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="signedwalk",
        description="Anti-concentration of random signed products in finite groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, handler, shared: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for flag in shared.split():
            p.add_argument(f"--{flag}", **_SHARED[flag])
        p.set_defaults(handler=handler)
        return p

    p = command("order", cmd_order, "group cap out", "order of one element in an enumerated group")
    p.add_argument("--element", required=True, help="inline element spec (JSON)")

    p = command("closure", cmd_closure, "group cap out", "enumerate the group generated by the spec")
    p.add_argument("--elements", action="store_true", help="include element encodings")

    p = command("rho", cmd_rho, "group seq cap out", "exact maximum point probability")
    p.add_argument("--dump-dist", default=None, help="also write the full law to this path")

    p = command(
        "mc", cmd_mc, "seq cap samples seed threads out", "Monte-Carlo estimate without enumeration"
    )
    p.add_argument("--group", help="group spec JSON path (optional)")

    command("chartab", cmd_chartab, "group cap out", "character table")

    p = command("irreps", cmd_irreps, "group cap seed out", "explicit unitary irreducibles")
    p.add_argument("--dump-matrices", action="store_true")

    p = command("fourier-check", cmd_fourier_check, "group cap seed out", "trace identity vs exact law")
    p.add_argument("--tol", type=_checked(float, lambda v: v > 0, "> 0"), default=1e-8)
    p.add_argument("--count", type=_AT_LEAST_ONE, default=10, help="random sequences to test")

    p = command("mult-bounds", cmd_mult_bounds, "group cap out", "eigenvalue multiplicity windows")
    p.add_argument("--alpha", type=_fraction, default="1/6", help="window half-width (fraction)")

    p = command("svd-props", cmd_svd_props, "seed out", "singular-value inequality suites")
    p.add_argument("--draws", type=_AT_LEAST_ONE, default=1000)
    p.add_argument("--unitary-draws", type=_AT_LEAST_ONE, default=200)

    p = command(
        "diag", cmd_diag, "group seq cap seed out format", "cascade diagnostics for one irreducible"
    )
    p.add_argument("--dim", type=int, default=None, help="irreducible dimension")
    p.add_argument("--target", type=int, default=0, help="target element index")

    p = command("embed", cmd_embed, "out", "order-preserving reduction mod p")
    p.add_argument("--matrices", required=True, help="JSON list of rational matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-min", type=int, default=None)

    p = command("bounds", cmd_bounds, "out", "closed-form bound calculators")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=None)

    p = command("example2", cmd_example2, "seed out", "signed integer sum lower-bound check")
    p.add_argument("--a", default=None, help="comma-separated terms")
    p.add_argument("--k", type=_AT_LEAST_ONE, default=None)
    p.add_argument("--n", type=_AT_LEAST_ONE, default=100)

    p = command("sweep", cmd_sweep, "group cap out format", "rho vs n curve for a constant sequence")
    p.add_argument("--element", required=True, help="inline element spec (JSON)")
    p.add_argument("--n-max", type=_AT_LEAST_ONE, default=32)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SignedWalkError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
