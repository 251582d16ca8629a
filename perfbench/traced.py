"""Run one signedwalk CLI command in-process, with a span around every layer call.

Usage: python3 perfbench/traced.py SPANS_JSON COMMAND_ID ARGV...

The public functions of `groups`, `walk`, `chartable`, `modarith` and `irreps`
are wrapped in every signedwalk module namespace that imported them, then
`signedwalk.cli.main(ARGV)` runs under a root span `cli.main`.  Spans stay in
memory and are written to SPANS_JSON when the command returns; stdout carries
the command's own output unchanged and the exit code is the command's.

A span records its name, start, end, parent span, command id and self time
(its duration minus the time its child calls cover).  Calls to `groups.mul`
and `groups.mul_many` fire up to ~10^5 times per command, so they are not
recorded one by one: each is folded into a call count, busy time and self time
under the nearest recorded span.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import numpy as np

from signedwalk import chartable, cli, groups, irreps, modarith, walk

AGGREGATED = frozenset({"groups.mul", "groups.mul_many"})


def _mc_attrs(args, kwargs, result) -> dict:
    threads = kwargs.get("threads", args[3] if len(args) > 3 else 1)
    return {
        "samples": result.samples,
        "threads": threads,
        "distinct_products": result.distinct_products,
    }


# (module, public name, span attributes taken from (args, kwargs, result))
FUNCTIONS = [
    (groups, "close_generators", lambda a, k, r: {"elements": r.order}),
    (groups, "conjugacy_classes", lambda a, k, r: {"classes": r.count}),
    (groups, "element_order", None),
    (walk, "sequence_from_spec", None),
    (walk, "exact_distribution", lambda a, k, r: {"element_steps": a[0].order * a[1].n}),
    (walk, "rho_monte_carlo", _mc_attrs),
    (
        chartable,
        "dixon_character_table",
        lambda a, k, r: {"modulus": r.modulus, "characters": len(r.degrees)},
    ),
    (chartable, "check_multiplicity_bounds", lambda a, k, r: {"entries": len(r.entries)}),
    (chartable, "eigenvalue_multiplicities", None),
    (modarith, "solve_in_span", None),
    (modarith, "charpoly_mod", None),
    (modarith, "roots_mod", None),
    (modarith, "nullspace_mod", None),
    (irreps, "decompose_regular", lambda a, k, r: {"irreps": len(r)}),
    (irreps, "fourier_distribution", None),
]

# (module, class, method name)
METHODS = [
    (groups, groups.FiniteGroup, "mul"),
    (groups, groups.FiniteGroup, "mul_many"),
    (groups, groups.FiniteGroup, "right_column"),
    (chartable, chartable.CharacterTable, "central_order"),
    (chartable, chartable.CharacterTable, "power_classes"),
]


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span recorder for the thread that created it.

    Calls from other threads (the Monte-Carlo worker pool) pass through
    untraced; none of the wrapped names is called from a worker.
    """

    def __init__(self, command_id: int) -> None:
        self.command_id = command_id
        self.thread = threading.get_ident()
        self.spans: list[dict] = []
        self.stack: list[list[float]] = []  # child time of each open call, innermost last
        self.recorded: list[dict] = []  # open recorded spans, innermost last
        self.open_names: dict[str, int] = {}
        self.next_id = 0

    def wrap(self, name: str, fn, attrs=None):
        if name in AGGREGATED:
            return self._wrap_aggregated(name, fn)
        stack, recorded, spans = self.stack, self.recorded, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self.thread:
                return fn(*args, **kwargs)
            span = {
                "id": self.next_id,
                "name": name,
                "parent": recorded[-1]["id"] if recorded else None,
                "command": self.command_id,
                "attrs": {},
                "agg": {},
            }
            self.next_id += 1
            self.open_names[name] = self.open_names.get(name, 0) + 1
            recorded.append(span)
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span["attrs"] = attrs(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorded.pop()
                self.open_names[name] -= 1
                if stack:
                    stack[-1][0] += end - start
                span.update(start=start, end=end, self_s=end - start - child[0])
                spans.append(span)

        return traced

    def _wrap_aggregated(self, name: str, fn):
        stack, recorded = self.stack, self.recorded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorded or threading.get_ident() != self.thread:
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                stack[-1][0] += duration
                entry = recorded[-1]["agg"].get(name)
                if entry is None:
                    entry = recorded[-1]["agg"][name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child[0]

        return traced

    def is_open(self, name: str) -> bool:
        return self.open_names.get(name, 0) > 0

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "signedwalk"]
        for module, attr, attrs in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.wrap(f"{_short(module)}.{attr}", original, attrs)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapper)
        for module, owner, attr in METHODS:
            setattr(owner, attr, self.wrap(f"{_short(module)}.{attr}", getattr(owner, attr)))
        eigh = np.linalg.eigh
        traced_eigh = self.wrap("irreps.eigh", eigh)

        # only the eigh calls made while decompose_regular runs belong to irreps
        @functools.wraps(eigh)
        def eigh_in_irreps(*args, **kwargs):
            if self.is_open("irreps.decompose_regular"):
                return traced_eigh(*args, **kwargs)
            return eigh(*args, **kwargs)

        np.linalg.eigh = eigh_in_irreps


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spans_path, command_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(command_id)
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(cli_argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"command": command_id, "argv": cli_argv, "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
