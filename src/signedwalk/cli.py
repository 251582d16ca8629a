"""Command-line surface: batch computation, verification suites, CSV/JSON emission.

Exit codes: 0 success or verified pass, 1 verification failure, 2 input error,
3 resource cap.  Output is deterministic for a fixed (config, seed); JSON is
emitted with sorted keys and no timestamps, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chartable import check_multiplicity_bounds, dixon_character_table, max_character_ratio
from .embed import embed_mod_p, rational_matrices_from_json
from .errors import (
    CapExceeded,
    NoSuitablePrime,
    PowerCapExceeded,
    PrimeSearchExhausted,
    SignedWalkError,
    SizeCap,
    TooManyClasses,
)
from .groups import (
    DEFAULT_CLOSURE_CAP,
    FiniteGroup,
    close_generators,
    element_from_spec,
    element_order,
    generators_from_spec,
)
from .irreps import decompose_regular, fourier_distribution
from .spectral import (
    cascade_diagnostics,
    cos_spectrum,
    product_singular_bounds,
    random_unitary,
    trace_vs_singular_sum,
    trig_inequality_scan,
)
from .walk import (
    SignedSequence,
    central_binomial_bound,
    exact_distribution,
    order_length_bound,
    prime_order_length_bound,
    rho_monte_carlo,
    sequence_from_spec,
    signed_sum_check,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_RESOURCE_ERRORS = (
    CapExceeded,
    SizeCap,
    TooManyClasses,
    NoSuitablePrime,
    PowerCapExceeded,
    PrimeSearchExhausted,
)


@dataclass
class RunConfig:
    """Validated per-command configuration assembled from CLI flags."""

    group_path: str | None = None
    seq_path: str | None = None
    samples: int = 100_000
    seed: int = 0
    tol: float | None = None
    cap: int = DEFAULT_CLOSURE_CAP
    threads: int = 1
    out: str | None = None
    fmt: str = "json"
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.threads < 1 or self.samples < 1 or self.cap < 1:
            raise ValueError("threads, samples, and cap must be >= 1")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be json or csv")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(cfg: RunConfig, payload, csv_rows=None, csv_header=None) -> None:
    if cfg.fmt == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _group(cfg: RunConfig) -> FiniteGroup:
    spec = _load_json(cfg.group_path)
    return close_generators(generators_from_spec(spec), cap=cfg.cap)


def _sequence(cfg: RunConfig, G: FiniteGroup | None) -> SignedSequence:
    """The --seq file over G; with G None, inline entries only, their family taken
    from --group when given (see `sequence_from_spec`)."""
    ambient = _load_json(cfg.group_path) if G is None and cfg.group_path else None
    return sequence_from_spec(_load_json(cfg.seq_path), G, ambient)


def _bounds_payload(seq: SignedSequence, p: int | None) -> dict:
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


def cmd_order(cfg: RunConfig) -> int:
    G = _group(cfg)
    g = element_from_spec(G, cfg.extra["element"])
    _emit(cfg, {"order": element_order(G, g)})
    return EXIT_OK


def cmd_closure(cfg: RunConfig) -> int:
    G = _group(cfg)
    payload = {"order": G.order, "generators": list(G.generator_indices)}
    if cfg.extra.get("elements"):
        payload["elements"] = G.hex_encodings(range(G.order))
    _emit(cfg, payload)
    return EXIT_OK


def cmd_rho(cfg: RunConfig) -> int:
    seq_spec = _load_json(cfg.seq_path)
    try:
        G = _group(cfg)
    except CapExceeded:
        G = None
    if G is not None:
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
        dump_path = cfg.extra.get("dump_dist")
        if dump_path:
            with open(dump_path, "w", encoding="utf-8") as fh:
                json.dump(dist.to_json(G), fh, indent=2, sort_keys=True)
    else:
        seq = _sequence(cfg, None)
        mc = rho_monte_carlo(seq, cfg.samples, cfg.seed, threads=cfg.threads)
        payload = {
            "method": "monte_carlo",
            "rho": mc.to_json(),
            "bounds": _bounds_payload(seq, None),
        }
    _emit(cfg, payload)
    return EXIT_OK


def cmd_mc(cfg: RunConfig) -> int:
    G = None
    if cfg.group_path:
        try:
            G = _group(cfg)
        except CapExceeded:
            pass
    seq = _sequence(cfg, G)
    mc = rho_monte_carlo(seq, cfg.samples, cfg.seed, threads=cfg.threads)
    _emit(cfg, mc.to_json())
    return EXIT_OK


def cmd_chartab(cfg: RunConfig) -> int:
    G = _group(cfg)
    table = dixon_character_table(G)
    _emit(cfg, table.to_json())
    return EXIT_OK


def cmd_irreps(cfg: RunConfig) -> int:
    G = _group(cfg)
    irreps = decompose_regular(G, seed=cfg.seed)
    payload = {
        "dimensions": [r.dim for r in irreps],
        "sum_of_squares": sum(r.dim**2 for r in irreps),
        "order": G.order,
    }
    if cfg.extra.get("dump_matrices"):
        payload["matrices"] = [
            [[[float(x.real), float(x.imag)] for x in row] for row in mat]
            for r in irreps
            for mat in r.matrices
        ]
    _emit(cfg, payload)
    return EXIT_OK


def cmd_fourier_check(cfg: RunConfig) -> int:
    G = _group(cfg)
    if G.order == 1:
        raise ValueError("fourier-check draws non-trivial elements; the group is trivial (|G| = 1)")
    tol = cfg.tol if cfg.tol is not None else 1e-8
    irreps = decompose_regular(G, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    count = int(cfg.extra.get("count", 10))
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 17))
        seq = SignedSequence(
            tuple(G.element(int(rng.integers(1, G.order))) for _ in range(n))
        )
        fd = fourier_distribution(G, irreps, seq)
        ed = exact_distribution(G, seq)
        scale = 1 << seq.n
        dev = max(abs(fd[i] - ed.counts[i] / scale) for i in range(G.order))
        worst = max(worst, dev)
    _emit(cfg, {"max_abs_deviation": worst, "sequences": count, "tolerance": tol})
    return EXIT_OK if worst <= tol else EXIT_VERIFY_FAIL


def cmd_mult_bounds(cfg: RunConfig) -> int:
    G = _group(cfg)
    table = dixon_character_table(G)
    alpha = Fraction(cfg.extra.get("alpha", "1/6"))
    report = check_multiplicity_bounds(table, alpha)
    ratio = max_character_ratio(table)
    payload = {
        "alpha": str(alpha),
        "max_character_ratio": None if ratio is None else ratio[0],
        "entries": len(report.entries),
        "hypothesis_failed": report.count("hypothesis_failed"),
        "vacuous": report.count("vacuous"),
        "all_pass": report.all_pass,
        "no_nonlinear_characters": ratio is None,
    }
    _emit(cfg, payload)
    return EXIT_OK if report.all_pass else EXIT_VERIFY_FAIL


def cmd_svd_props(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    draws = int(cfg.extra.get("draws", 1000))
    unitary_draws = int(cfg.extra.get("unitary_draws", 200))
    ok = True
    for _ in range(draws):
        d = int(rng.integers(2, 21))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M2 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ok &= trace_vs_singular_sum(M).passed
        ok &= product_singular_bounds(M, M2).passed
    worst_dev = 0.0
    for d in range(2, 17):
        for _ in range(unitary_draws):
            _, _, dev = cos_spectrum(random_unitary(d, rng))
            worst_dev = max(worst_dev, dev)
    ok &= worst_dev <= 1e-8
    v1, v2, v3 = trig_inequality_scan(1e-4)
    ok &= max(v1, v2, v3) <= 1e-12
    _emit(
        cfg,
        {
            "matrix_draws": draws,
            "unitary_draws_per_size": unitary_draws,
            "cos_spectrum_worst_dev": worst_dev,
            "trig_violations": [v1, v2, v3],
            "all_pass": bool(ok),
        },
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_diag(cfg: RunConfig) -> int:
    G = _group(cfg)
    if G.variant != "matrix":
        raise ValueError("cascade diagnostics need a matrix group (for p and m)")
    seq = _sequence(cfg, G)
    irreps = decompose_regular(G, seed=cfg.seed)
    want = cfg.extra.get("dim")
    rep = None
    for r in irreps:
        if want is None or r.dim == int(want):
            rep = r if want is not None or rep is None or r.dim > rep.dim else rep
    if rep is None:
        raise ValueError(f"no irreducible of dimension {want}")
    b_index = int(cfg.extra.get("target", 0))
    diag = cascade_diagnostics(G.p, G.m, G, rep, seq, b_index)
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
        cfg,
        payload,
        csv_rows=diag.csv_rows(),
        csv_header=("l", "observed_s_l", "predicted_bound", "for_s6_lhs", "for_s6_rhs"),
    )
    return EXIT_OK if diag.prefix_ok else EXIT_VERIFY_FAIL


def cmd_embed(cfg: RunConfig) -> int:
    data = _load_json(cfg.extra["matrices"])
    mats = rational_matrices_from_json(data)
    n = int(cfg.extra["n"])
    p_min = cfg.extra.get("p_min")
    res = embed_mod_p(mats, n, p_min=None if p_min is None else int(p_min))
    _emit(cfg, res.to_json())
    return EXIT_OK


def cmd_bounds(cfg: RunConfig) -> int:
    s = int(cfg.extra["s"])
    n = int(cfg.extra["n"])
    p = cfg.extra.get("p")
    value, vacuous = order_length_bound(s, n)
    payload = {
        "binomial": _fraction_json(central_binomial_bound(n)),
        "order_length": {"value": value, "vacuous": vacuous},
    }
    if p is not None:
        payload["prime_order_length"] = {"value": prime_order_length_bound(int(p), s, n)}
    _emit(cfg, payload)
    return EXIT_OK


def cmd_example2(cfg: RunConfig) -> int:
    if cfg.extra.get("a"):
        a_list = [int(x) for x in str(cfg.extra["a"]).split(",")]
        K = cfg.extra.get("k")
        res = signed_sum_check(a_list, K=None if K is None else int(K))
    else:
        K = int(cfg.extra.get("k", 3))
        n = int(cfg.extra.get("n", 100))
        rng = np.random.default_rng(cfg.seed)
        signs = rng.integers(0, 2, size=n) * 2 - 1
        mags = rng.integers(1, K + 1, size=n)
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
    _emit(cfg, payload)
    return EXIT_OK if res.bound_holds else EXIT_VERIFY_FAIL


def cmd_sweep(cfg: RunConfig) -> int:
    G = _group(cfg)
    g = element_from_spec(G, cfg.extra["element"])
    n_max = int(cfg.extra.get("n_max", 32))
    gi = G.index_of(g)
    if gi == 0:
        raise ValueError("sweep element must be non-trivial")
    s = element_order(G, gi)
    rows = []
    payload = []
    for n in range(1, n_max + 1):
        seq = SignedSequence.constant(G.element(gi), n)
        rho = exact_distribution(G, seq).rho()
        binom = central_binomial_bound(n)
        if s >= 2 and n >= 2:
            bound, vac = order_length_bound(s, n)
        else:
            bound, vac = float("nan"), True
        rows.append((n, rho.value, float(binom), bound, vac))
        payload.append(
            {
                "n": n,
                "rho": _rho_json(rho),
                "rho_value": rho.value,
                "binomial": float(binom),
                "order_length": bound,
                "vacuous": vac,
            }
        )
    _emit(
        cfg,
        payload,
        csv_rows=rows,
        csv_header=("n", "rho", "binomial", "order_length", "vacuous"),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="signedwalk",
        description="Anti-concentration of random signed products in finite groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, group=False, seq=False):
        if group:
            p.add_argument("--group", required=True, help="group spec JSON path")
        else:
            p.add_argument("--group", help="group spec JSON path")
        if seq:
            p.add_argument("--seq", required=True, help="sequence spec JSON path")
        else:
            p.add_argument("--seq", help="sequence spec JSON path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--cap", type=int, default=DEFAULT_CLOSURE_CAP)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("order", help="order of one element in an enumerated group")
    common(p, group=True)
    p.add_argument("--element", required=True, help="inline element spec (JSON)")

    p = sub.add_parser("closure", help="enumerate the group generated by the spec")
    common(p, group=True)
    p.add_argument("--elements", action="store_true", help="include element encodings")

    p = sub.add_parser("rho", help="maximum point probability (exact, MC fallback)")
    common(p, group=True, seq=True)
    p.add_argument("--dump-dist", default=None, help="also write the full law to this path")

    p = sub.add_parser("mc", help="Monte-Carlo estimate without enumeration")
    common(p, seq=True)

    p = sub.add_parser("chartab", help="character table")
    common(p, group=True)

    p = sub.add_parser("irreps", help="explicit unitary irreducibles")
    common(p, group=True)
    p.add_argument("--dump-matrices", action="store_true")

    p = sub.add_parser("fourier-check", help="trace identity vs exact law")
    common(p, group=True)
    p.add_argument("--count", type=int, default=10, help="random sequences to test")

    p = sub.add_parser("mult-bounds", help="eigenvalue multiplicity windows")
    common(p, group=True)
    p.add_argument("--alpha", default="1/6", help="window half-width (fraction)")

    p = sub.add_parser("svd-props", help="singular-value inequality suites")
    common(p)
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--unitary-draws", type=int, default=200)

    p = sub.add_parser("diag", help="cascade diagnostics for one irreducible")
    common(p, group=True, seq=True)
    p.add_argument("--dim", type=int, default=None, help="irreducible dimension")
    p.add_argument("--target", type=int, default=0, help="target element index")

    p = sub.add_parser("embed", help="order-preserving reduction mod p")
    common(p)
    p.add_argument("--matrices", required=True, help="JSON list of rational matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-min", type=int, default=None)

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    common(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=None)

    p = sub.add_parser("example2", help="signed integer sum lower-bound check")
    common(p)
    p.add_argument("--a", default=None, help="comma-separated terms")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("sweep", help="rho vs n curve for a constant sequence")
    common(p, group=True)
    p.add_argument("--element", required=True, help="inline element spec (JSON)")
    p.add_argument("--n-max", type=int, default=32)

    return ap


_HANDLERS = {
    "order": cmd_order,
    "closure": cmd_closure,
    "rho": cmd_rho,
    "mc": cmd_mc,
    "chartab": cmd_chartab,
    "irreps": cmd_irreps,
    "fourier-check": cmd_fourier_check,
    "mult-bounds": cmd_mult_bounds,
    "svd-props": cmd_svd_props,
    "diag": cmd_diag,
    "embed": cmd_embed,
    "bounds": cmd_bounds,
    "example2": cmd_example2,
    "sweep": cmd_sweep,
}

_EXTRA_KEYS = {
    "order": ("element",),
    "closure": ("elements",),
    "rho": ("dump_dist",),
    "irreps": ("dump_matrices",),
    "fourier-check": ("count",),
    "mult-bounds": ("alpha",),
    "svd-props": ("draws", "unitary_draws"),
    "diag": ("dim", "target"),
    "embed": ("matrices", "n", "p_min"),
    "bounds": ("s", "n", "p"),
    "example2": ("a", "k", "n"),
    "sweep": ("element", "n_max"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    extra = {}
    for key in _EXTRA_KEYS.get(args.command, ()):
        if hasattr(args, key):
            val = getattr(args, key)
            if val is not None:
                extra[key] = val
    try:
        if args.command == "order" or args.command == "sweep":
            extra["element"] = json.loads(extra["element"])
        cfg = RunConfig(
            group_path=args.group,
            seq_path=args.seq,
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
            cap=args.cap,
            threads=args.threads,
            out=args.out,
            fmt=args.fmt,
            extra=extra,
        )
        return _HANDLERS[args.command](cfg)
    except _RESOURCE_ERRORS as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SignedWalkError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
