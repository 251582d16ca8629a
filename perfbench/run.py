"""Benchmark of the signedwalk CLI: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's input files.  Each CLI command then runs as
a child process (`python3 -m signedwalk ...`, with PYTHONPATH=src) in a closed
loop: one client, one command at a time.  Every output is checked.

--trace 0 runs the set-up command (`closure`) a few times, then whole workload
batches for as long as another batch fits in S seconds, and reports the
end-to-end metrics.  --trace 1 runs one untraced batch and then the same
commands through perfbench/traced.py, which records spans around every layer
call in-process, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print every metric by name with its unit and
sample count, and the machine and program the numbers belong to; the same
record is written to .bench_work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))

RUN_LIMIT_S = 170.0  # no child may run past this point of a run (limit: 180 s)
SETUP_REPEATS = 2  # extra `closure` runs before the batches, for setup_s
STARTUP_REPEATS = 3  # trivial `bounds` children timed for cli.startup_s
WALK_DISTINCT = 4
WALK_REPEAT = 16  # n = 64 > 62, so the exact counts outgrow int64
MC_SAMPLES = 100_000
MC_SLACK = 5  # plug-in frequency + 5 stderr must reach the exact rho
TRIVIAL = ["bounds", "--s", "3", "--n", "4"]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    label: str
    wall_s: float
    rss_mb: float
    code: int | None  # None: killed at its timeout
    out: Path
    err: Path
    error: str | None = None  # failed output check

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.error is None


def run_child(label: str, cmd: list[str], out: Path, timeout: float) -> Child:
    """Run one command to completion; wall time, peak RSS and exit code from wait4."""
    err = out.with_suffix(".err")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out_fh, stderr=err_fh, env=env, cwd=ROOT)

        def kill() -> None:
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        with lock:
            state["reaped"] = True
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if state["killed"] else proc.returncode
    return Child(label, wall, usage.ru_maxrss / 1024.0, code, out, err)


class Runner:
    """Runs a run's commands one at a time against the run's time limit."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.start = time.perf_counter()
        self.children: list[Child] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def cli(self, label: str, argv: list[str], tag: str) -> Child:
        return self._run(label, [sys.executable, "-m", "signedwalk", *argv], tag)

    def traced(self, label: str, argv: list[str], command_id: int) -> Child:
        spans = self.workdir / f"spans-{label}.json"
        cmd = [sys.executable, str(HERE / "traced.py"), str(spans), str(command_id), *argv]
        return self._run(label, cmd, "traced")

    def _run(self, label: str, cmd: list[str], tag: str) -> Child:
        out = self.workdir / f"{tag}-{label}.out"
        child = run_child(label, cmd, out, RUN_LIMIT_S - self.elapsed())
        if child.code is None:
            child.error = "timed out"
        elif child.code != 0:
            tail = child.err.read_text(errors="replace").strip().splitlines()[-1:]
            child.error = f"exit code {child.code}: {' '.join(tail)}"
        self.children.append(child)
        return child


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    order: int  # |G| of the workload's group
    steps: list[tuple[str, list[str]]]  # (label, CLI argv), closure first
    jobs: tuple[str, str]  # labels behind job1_s and job2_s
    job_names: tuple[str, str]  # what those metrics are called in the issue
    extra: dict


def walk_sl2_49(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    spec, letters = inputs.sl2_49_spec(rng)
    group = inputs.write_json(workdir / "group.json", spec)
    seq = inputs.write_json(
        workdir / "seq.json", inputs.sl2_49_sequence(rng, letters, WALK_DISTINCT, WALK_REPEAT)
    )
    law = str(workdir / "law.json")
    mc = ["mc", "--seq", seq, "--seed", str(seed % 2**63), "--samples", str(MC_SAMPLES), "--threads"]
    return Workload(
        "walk-sl2_49",
        inputs.SL2_49_ORDER,
        [
            ("closure", ["closure", "--group", group]),
            ("rho", ["rho", "--group", group, "--seq", seq, "--dump-dist", law]),
            ("mc_1", mc + ["1"]),
            ("mc_n", mc + [str(NPROC)]),
        ],
        ("rho", "mc_n"),
        ("rho_s", f"mc_s at --threads {NPROC}"),
        {"n": WALK_DISTINCT * WALK_REPEAT, "law": Path(law)},
    )


def characters_sl2_49(seed: int, workdir: Path) -> Workload:
    spec, _ = inputs.sl2_49_spec(np.random.default_rng(seed))
    group = inputs.write_json(workdir / "group.json", spec)
    return Workload(
        "characters-sl2_49",
        inputs.SL2_49_ORDER,
        [
            ("closure", ["closure", "--group", group]),
            ("chartab", ["chartab", "--group", group]),
            ("mult_bounds", ["mult-bounds", "--group", group, "--alpha", "1/6"]),
        ],
        ("chartab", "mult_bounds"),
        ("chartab_s", "mult_bounds_s"),
        {},
    )


def regular_s6(seed: int, workdir: Path) -> Workload:
    group = inputs.write_json(workdir / "group.json", inputs.s6_spec(np.random.default_rng(seed)))
    cli_seed = str(seed % 2**63)
    return Workload(
        "regular-s6",
        inputs.S6_ORDER,
        [
            ("closure", ["closure", "--group", group]),
            ("irreps", ["irreps", "--group", group, "--seed", cli_seed]),
            ("fourier_check", ["fourier-check", "--group", group, "--seed", cli_seed]),
        ],
        ("irreps", "fourier_check"),
        ("irreps_s", "fourier_check_s"),
        {},
    )


WORKLOADS = {
    "walk-sl2_49": walk_sl2_49,
    "characters-sl2_49": characters_sl2_49,
    "regular-s6": regular_s6,
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _doc(child: Child):
    return json.loads(child.out.read_text(encoding="utf-8"))


def check_closure(w: Workload, batch: dict, child: Child) -> str | None:
    order = _doc(child)["order"]
    return None if order == w.order else f"closure order {order} != {w.order}"


def check_rho(w: Workload, batch: dict, child: Child) -> str | None:
    """The dumped law sums to 2^n, and its maximum and maximizers are the reported rho."""
    n = w.extra["n"]
    doc = _doc(child)
    law = json.loads(w.extra["law"].read_text(encoding="utf-8"))
    counts = [int(e["count"]) for e in law["entries"]]
    if law["denom_exp"] != n or doc["rho"]["denom_exp"] != n:
        return "law denominator is not 2^n"
    if sum(counts) != 1 << n:
        return "law counts do not sum to 2^n"
    best = max(counts)
    if int(doc["rho"]["count"]) != best:
        return "reported rho is not the law's maximum"
    maximizers = sorted(e["element"] for e in law["entries"] if int(e["count"]) == best)
    if maximizers != sorted(doc["maximizers"]):
        return "reported maximizers are not the law's"
    w.extra["rho"] = Fraction(best, 1 << n)
    return None


def check_mc(w: Workload, batch: dict, many: Child) -> str | None:
    """Identical at 1 and NPROC threads, and consistent with the exact rho."""
    if batch["mc_1"].out.read_bytes() != many.out.read_bytes():
        return f"mc output differs between 1 and {NPROC} threads"
    doc = _doc(many)
    if doc["samples"] != MC_SAMPLES:
        return "mc ran the wrong number of samples"
    rho = w.extra.get("rho")
    if rho is None:
        return "no exact rho to check mc against"
    if doc["plugin_max_frequency"] + MC_SLACK * doc["stderr"] < rho:
        return "mc plug-in frequency + 5 stderr is below the exact rho"
    return None


def check_chartab(w: Workload, batch: dict, child: Child) -> str | None:
    """Degrees square-sum to |G| and the rows are orthonormal, recomputed from the JSON."""
    doc = _doc(child)
    if doc["order"] != w.order or sum(d * d for d in doc["degrees"]) != w.order:
        return "character degrees do not square-sum to |G|"
    values = np.array(doc["characters"], dtype=np.float64)
    chi = values[..., 0] + 1j * values[..., 1]
    sizes = np.array([c["size"] for c in doc["classes"]], dtype=np.float64)
    if sizes.sum() != w.order:
        return "class sizes do not sum to |G|"
    gram = (chi * sizes) @ chi.conj().T / w.order
    if np.max(np.abs(gram - np.eye(len(chi)))) > 1e-6:
        return "character rows are not orthonormal"
    return None


def check_mult_bounds(w: Workload, batch: dict, child: Child) -> str | None:
    doc = _doc(child)
    return None if doc["all_pass"] is True and doc["entries"] > 0 else "multiplicity windows fail"


def check_irreps(w: Workload, batch: dict, child: Child) -> str | None:
    doc = _doc(child)
    ok = doc["sum_of_squares"] == doc["order"] == w.order
    return None if ok else "irreducible dimensions do not square-sum to |G|"


# mc_1 is checked together with mc_n; fourier-check verifies itself (exit code)
CHECKS = {
    "closure": check_closure,
    "rho": check_rho,
    "mc_n": check_mc,
    "chartab": check_chartab,
    "mult_bounds": check_mult_bounds,
    "irreps": check_irreps,
}


def check_batch(w: Workload, batch: dict[str, Child], reference: dict[str, bytes]) -> None:
    """Set `error` on every child whose output is wrong.

    Outputs must also repeat byte for byte across the batches of one run.
    """
    for label, child in batch.items():
        if child.error is not None:
            continue
        check = CHECKS.get(label)
        try:
            child.error = check(w, batch, child) if check else None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            child.error = f"unreadable output: {exc!r}"
        if child.error is None:
            output = child.out.read_bytes()
            if reference.setdefault(label, output) != output:
                child.error = "output differs from the run's first batch"


def run_batch(w: Workload, runner: Runner, reference: dict[str, bytes], traced: bool = False):
    """Every step of the workload once; returns (children by label, batch wall time)."""
    w.extra.pop("rho", None)
    batch: dict[str, Child] = {}
    start = time.perf_counter()
    for command_id, (label, argv) in enumerate(w.steps):
        if traced:
            batch[label] = runner.traced(label, argv, command_id)
        else:
            batch[label] = runner.cli(label, argv, "batch")
    wall = time.perf_counter() - start
    check_batch(w, batch, reference)
    return batch, wall


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------


def summary(samples: list[float]) -> str:
    """Median and the highest percentile that has at least ten samples beyond it."""
    if not samples:
        return "no samples"
    text = f"median {statistics.median(samples):.4f} (n={len(samples)}"
    tails = [p for p in (90, 99, 99.9) if len(samples) * (100 - p) / 100 >= 10]
    if tails:
        p = tails[-1]
        text += f", p{p:g} {float(np.percentile(samples, p)):.4f}"
    else:
        text += ", too few samples for a tail percentile"
    return text + ")"


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
    }


def ok_walls(children: list[Child], label: str) -> list[float]:
    return [c.wall_s for c in children if c.label == label and c.ok]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(w: Workload, runner: Runner, seconds: int, report: list[str]) -> dict:
    runner.cli("startup", TRIVIAL, "warmup")  # also compiles the package's bytecode
    reference: dict[str, bytes] = {}
    setup = [runner.cli("closure", w.steps[0][1], f"setup{k}") for k in range(SETUP_REPEATS)]
    for child in setup:
        check_batch(w, {"closure": child}, reference)
    batch_walls: list[float] = []
    batches: list[dict[str, Child]] = []
    while True:
        batch, wall = run_batch(w, runner, reference)
        batches.append(batch)
        if all(c.ok for c in batch.values()):
            batch_walls.append(wall)
        if runner.elapsed() + wall > seconds:
            break
    done = [c for b in batches for c in b.values()]
    setup_walls = ok_walls(setup, "closure") + ok_walls(done, "closure")
    job1, job2 = (ok_walls(done, label) for label in w.jobs)
    peak = max((c.rss_mb for c in runner.children), default=0.0)
    aliases = dict(zip(("job1_s", "job2_s"), w.job_names))
    timings = {"setup_s": setup_walls, "job1_s": job1, "job2_s": job2, "wall_s": batch_walls}
    out = {}
    for name, samples in timings.items():
        out[name] = {"value": statistics.median(samples) if samples else 0.0, "unit": "s"}
        alias = f" ({aliases[name]})" if name in aliases else ""
        report.append(f"{name}{alias} [s]: {summary(samples)}")
    out["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    report.append(f"peak_rss_mb [MB]: {peak:.1f} (highest child peak RSS, os.wait4)")
    if w.name == "walk-sl2_49" and job2:
        rate = MC_SAMPLES / statistics.median(job2)
        report.append(
            f"mc_samples_per_s [1/s]: {rate:.1f} ({MC_SAMPLES} samples at --threads {NPROC}; "
            f"this machine has {NPROC} cores)"
        )
    return out


# per-layer metrics: name -> unit; the order is the report's
PER_LAYER_UNITS = {
    "groups.close_generators.s": "s",
    "groups.close_generators.elements": "count",
    "groups.conjugacy_classes.s": "s",
    "groups.conjugacy_classes.classes": "count",
    "groups.mul.calls": "count",
    "groups.mul.s": "s",
    "groups.element_order.calls": "count",
    "groups.element_order.s": "s",
    "groups.mul_many.calls": "count",
    "groups.mul_many.s": "s",
    "groups.right_column.calls": "count",
    "groups.right_column.s": "s",
    "walk.sequence_from_spec.s": "s",
    "walk.exact_distribution.s": "s",
    "walk.exact_distribution.element_steps": "count",
    "walk.exact_distribution.element_steps_per_s": "1/s",
    "walk.rho_monte_carlo.s": "s",
    "walk.rho_monte_carlo.samples_per_s": "1/s",
    "walk.rho_monte_carlo.distinct_ratio": "ratio",
    "walk.rho_monte_carlo.speedup": "ratio",
    "chartable.dixon_character_table.s": "s",
    "chartable.dixon_character_table.modulus": "1",
    "modarith.solve_in_span.calls": "count",
    "modarith.solve_in_span.s": "s",
    "modarith.charpoly_mod.calls": "count",
    "modarith.charpoly_mod.s": "s",
    "modarith.roots_mod.calls": "count",
    "modarith.roots_mod.s": "s",
    "modarith.nullspace_mod.calls": "count",
    "modarith.nullspace_mod.s": "s",
    "chartable.split_ratio": "ratio",
    "chartable.check_multiplicity_bounds.s": "s",
    "chartable.check_multiplicity_bounds.entries": "count",
    "chartable.eigenvalue_multiplicities.calls": "count",
    "chartable.eigenvalue_multiplicities.s": "s",
    "chartable.central_order.calls": "count",
    "chartable.central_order.s": "s",
    "chartable.power_classes.calls": "count",
    "chartable.power_classes.s": "s",
    "irreps.decompose_regular.s": "s",
    "irreps.decompose_regular.irreps": "count",
    "irreps.eigh.calls": "count",
    "irreps.eigh.s": "s",
    "irreps.eigh_per_irrep": "ratio",
    "irreps.fourier_distribution.calls": "count",
    "irreps.fourier_distribution.s": "s",
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_totals(docs: list[dict], report: list[str]):
    """Per span name: calls and summed self time; every recorded span; and the
    commands whose self times do not add up to their root span."""
    totals: dict[str, dict] = {}
    spans: list[dict] = []
    unaccounted: list[int] = []  # commands whose self times miss their wall time

    def add(name: str, calls: int, self_s: float) -> None:
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0})
        entry["calls"] += calls
        entry["s"] += self_s

    for doc in docs:
        accounted = 0.0
        root = 0.0
        for span in doc["spans"]:
            spans.append(span)
            add(span["name"], 1, span["self_s"])
            accounted += span["self_s"]
            for name, (calls, _busy, self_s) in span["agg"].items():
                add(name, calls, self_s)
                accounted += self_s
            if span["parent"] is None:
                root += span["end"] - span["start"]
        share = accounted / root if root else 0.0
        report.append(
            f"  command {doc['command']} ({' '.join(doc['argv'][:1])}): traced wall "
            f"{root:.4f} s, layer self times + cli.main self = {accounted:.4f} s ({share:.6f})"
        )
        if abs(share - 1.0) > 1e-6:
            unaccounted.append(doc["command"])
    return totals, spans, unaccounted


def per_layer(totals: dict, spans: list[dict], startup: list[float], untraced: float,
              traced: float, report: list[str]) -> dict:

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("s", 0.0)

    def attrs(name: str) -> list[dict]:
        return [s["attrs"] for s in spans if s["name"] == name and s["attrs"]]

    def largest(name: str, key: str) -> int:
        return max((a[key] for a in attrs(name)), default=0)

    values: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls(layer)
        elif kind == "s":
            values[metric] = self_s(layer)

    steps = sum(a["element_steps"] for a in attrs("walk.exact_distribution"))
    values["walk.exact_distribution.element_steps"] = steps
    exact_s = self_s("walk.exact_distribution")
    values["walk.exact_distribution.element_steps_per_s"] = steps / exact_s if exact_s else 0.0

    rates = {}  # threads -> (samples per second of the call, distinct ratio)
    for span in spans:
        if span["name"] == "walk.rho_monte_carlo" and span["attrs"]:
            a = span["attrs"]
            rates[a["threads"]] = (
                a["samples"] / (span["end"] - span["start"]),
                a["distinct_products"] / a["samples"],
            )
    top = rates[max(rates)] if rates else (0.0, 0.0)
    values["walk.rho_monte_carlo.samples_per_s"] = top[0]
    values["walk.rho_monte_carlo.distinct_ratio"] = top[1]
    values["walk.rho_monte_carlo.speedup"] = (
        top[0] / rates[1][0] if 1 in rates and len(rates) > 1 else 0.0
    )

    values["groups.close_generators.elements"] = largest("groups.close_generators", "elements")
    values["groups.conjugacy_classes.classes"] = largest("groups.conjugacy_classes", "classes")
    values["chartable.dixon_character_table.modulus"] = largest(
        "chartable.dixon_character_table", "modulus"
    )
    characters = sum(a["characters"] for a in attrs("chartable.dixon_character_table"))
    nullspaces = calls("modarith.nullspace_mod")
    values["chartable.split_ratio"] = characters / nullspaces if nullspaces else 0.0
    values["chartable.check_multiplicity_bounds.entries"] = sum(
        a["entries"] for a in attrs("chartable.check_multiplicity_bounds")
    )
    found = sum(a["irreps"] for a in attrs("irreps.decompose_regular"))
    values["irreps.decompose_regular.irreps"] = largest("irreps.decompose_regular", "irreps")
    values["irreps.eigh_per_irrep"] = calls("irreps.eigh") / found if found else 0.0
    values["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    values["cli.main.self_s"] = self_s("cli.main")
    values["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0

    out = {}
    for metric, unit in PER_LAYER_UNITS.items():
        out[metric] = {"value": values[metric], "unit": unit}
        report.append(f"{metric} [{unit}]: {values[metric]:.6g}")
    return out


def layers(w: Workload, runner: Runner, report: list[str]) -> dict:
    startup = [runner.cli("startup", TRIVIAL, f"startup{k}") for k in range(STARTUP_REPEATS)]
    untraced, untraced_wall = run_batch(w, runner, {})
    traced, traced_wall = run_batch(w, runner, {}, traced=True)
    for label, child in traced.items():
        if child.ok and child.out.read_bytes() != untraced[label].out.read_bytes():
            child.error = "traced output differs from the untraced output"
    docs = [
        json.loads((runner.workdir / f"spans-{label}.json").read_text(encoding="utf-8"))
        for label, child in traced.items()
        if child.ok
    ]
    report.append(f"untraced batch {untraced_wall:.4f} s, traced batch {traced_wall:.4f} s")
    totals, spans, unaccounted = layer_totals(docs, report)
    for label, _ in (w.steps[k] for k in unaccounted):
        traced[label].error = "layer self times do not add up to the traced wall time"
    return per_layer(
        totals, spans, ok_walls(startup, "startup"), untraced_wall, traced_wall, report
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "signedwalk" / "cli.py").is_file():
        print(f"signedwalk sources not found under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.iterdir():
        stale.unlink()
    env = environment(args.seed)
    w = WORKLOADS[args.workload](args.seed, workdir)
    runner = Runner(workdir)
    report = [f"{key}: {value}" for key, value in env.items()]
    report.append(f"workload {w.name}, closed loop, 1 client, {args.seconds} s, trace {args.trace}")
    if args.trace:
        metrics = layers(w, runner, report)
    else:
        metrics = end_to_end(w, runner, args.seconds, report)

    failed = [c for c in runner.children if not c.ok]
    attempted = len(runner.children)
    report.append(f"failed_frac: {len(failed)}/{attempted} = {len(failed) / attempted:.4f}")
    for child in failed:
        report.append(f"  FAILED {child.label}: {child.error}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(result, environment=env, workload=w.name, seconds=args.seconds, trace=args.trace)
    record["commands"] = [
        {"label": c.label, "wall_s": c.wall_s, "rss_mb": c.rss_mb, "error": c.error}
        for c in runner.children
    ]
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
