#!/usr/bin/env python3
"""Seeded benchmark of weylchar, run against the package in `src/` from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact_sweep --seed 0 --seconds 25 --trace 0

Workloads (see `workloads.py`): exact_sweep, deep_tower, float_checks,
cli_session.  Each is a closed loop with one client: the next op starts only
when the previous one has returned, and `cli_session` runs one child at a
time.  A run times set-up in fresh interpreters, then repeats the workload's
fixed op list ("a pass") for about `--seconds`, checking every output after
each pass, outside the timed region.

End-to-end metrics (`--trace 0`): setup_s, the median over fresh
interpreters of spawn to first-op readiness (numpy and weylchar imports plus
input generation); wall_s, the median pass; op_p50_ms and op_p90_ms,
percentiles over every op call of every pass; peak_rss_mb, ru_maxrss of the
run (for cli_session, of its largest child).

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
passes with passes that record spans around the package's functions, and
prints the per-layer metrics.  The last stdout line is the result JSON; the line before
it is a record of the environment, failures and known wrong answers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact_sweep", "deep_tower", "float_checks", "cli_session")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Per-layer metrics: traced function -> the stats reported for it.
LAYER_STATS = (
    ("cli.main", ("self_s",)),
    ("gtkernel.group_counts", ("calls", "self_s", "patterns", "keys")),
    ("symfunc.weyl_dim", ("calls", "self_s", "pairs")),
    ("moments.weight_distribution", ("self_s",)),
    ("moments.hciz_power_sum", ("self_s",)),
    ("symfunc.schur_to_power_sums", ("calls", "self_s")),
    ("symfunc.skew_expand", ("calls", "self_s", "terms")),
    ("symfunc.lr_product", ("calls", "self_s")),
    ("ucharacters.restrict_to_blocks", ("calls", "self_s", "components")),
    ("ucharacters.tensor_decompose", ("calls", "self_s", "components")),
    ("ucharacters.char_eval",
     ("calls", "self_s", "route_exact", "route_gt", "route_alternant", "route_unknown")),
    ("afalgebra.ergodic_sequence", ("self_s",)),
    ("afalgebra.embed", ("self_s",)),
    ("afalgebra.schur_weyl_defect", ("self_s",)),
    ("afalgebra.trace_weights", ("self_s",)),
    ("afalgebra.validate_diagram", ("self_s",)),
    ("afalgebra.k0_extension_obstruction", ("self_s",)),
    ("moments.hciz_monte_carlo", ("calls", "self_s", "samples")),
    ("poisson.kstep_semigroup_check", ("self_s", "grid_pairs")),
    ("poisson.poisson_series_check", ("self_s",)),
    ("poisson.binomial_reexpansion_check", ("self_s",)),
    ("poisson.stirling_identity", ("self_s",)),
    ("poisson.poisson_tail", ("self_s",)),
)
# The moment closed forms, reported together as moments.closed.self_s.
CLOSED_FORMS = ("moments.moment2_closed", "moments.moment4_closed", "moments.estimate_check")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = [("import.numpy_s", "s"), ("import.weylchar_s", "s"), ("moments.closed.self_s", "s")]
    for key, stats in LAYER_STATS:
        names += [(f"{key}.{stat}", "s" if stat == "self_s" else "count") for stat in stats]
    return names + [("trace.overhead_frac", "ratio"), ("trace.errors", "count")]


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    checks: int = 0
    failures: list = field(default_factory=list)
    misses: list = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_environment() -> None:
    """Cap BLAS threads at nproc, drop the seed override, import from `src/`.

    Child processes inherit all three through the environment.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    os.environ.pop("WEYLCHAR_SEED", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def run_pass(workloads, ops, tracer=None) -> tuple[Pass, list]:
    outs, latencies = [], []
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = workloads.Raised(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        outs.append(out)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    return Pass(wall, latencies), outs


def run_rounds(workloads, name, seed, legs, budget_s) -> list[list[Pass]]:
    """Rounds of one pass per leg, until the next round would end after `budget_s`.

    A leg is (ops, tracer or None, callback on the outputs or None).  Runs at
    least one round; returns each leg's passes.
    """
    passes: list[list[Pass]] = [[] for _ in legs]
    start = time.perf_counter()
    while True:
        round_s = 0.0
        for (ops, tracer, on_outputs), done in zip(legs, passes):
            p, outs = run_pass(workloads, ops, tracer)
            p.checks, p.failures, p.misses = workloads.check_outputs(name, seed, ops, outs)
            if on_outputs is not None:
                on_outputs(outs)
            done.append(p)
            round_s += p.wall
        if time.perf_counter() - start + round_s > budget_s:
            return passes


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Set-up in fresh interpreters, one at a time: spawn to first-op readiness."""
    records = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        rec["setup_s"] = rec.pop("ready") - start
        records.append(rec)
    return records


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def environment(seed: int) -> dict:
    import numpy

    import weylchar.gtkernel as gtkernel

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "weylchar").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gt_implementation": getattr(gtkernel, "IMPLEMENTATION", "absent"),
        "WEYLCHAR_PURE": os.environ.get("WEYLCHAR_PURE"),
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def layer_metrics(stats: dict, npasses: int, setups: list[dict], overhead: float) -> dict:
    def stat(key, name):
        return stats.get(key, {}).get(name, 0) / npasses

    values = {
        "import.numpy_s": statistics.median(r["numpy_s"] for r in setups),
        "import.weylchar_s": statistics.median(r["weylchar_s"] for r in setups),
        "moments.closed.self_s": sum(stat(k, "self_s") for k in CLOSED_FORMS),
    }
    for key, names in LAYER_STATS:
        for name in names:
            values[f"{key}.{name}"] = stat(key, name)
    values["trace.overhead_frac"] = overhead
    values["trace.errors"] = sum(stat(k, "errors") for k in stats)
    units = dict(per_layer_names())
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def merge_stats(total: dict, part: dict) -> None:
    for key, entry in part.items():
        bucket = total.setdefault(key, {})
        for name, value in entry.items():
            bucket[name] = bucket.get(name, 0) + value


def traced_leg(workloads, name, seed, ops):
    """The traced leg for `run_rounds`, and a function giving (stats, absent) after it.

    In-process workloads are traced here; `cli_session` children run the
    benchmark's launcher, which reports its spans on stderr.
    """
    from tracer import TRACE_MARK, Tracer

    if name != "cli_session":
        tracer = Tracer()
        tracer.install()
        return (ops, tracer, None), lambda: (tracer.stats(), tracer.absent)

    stats: dict = {}
    absent: set[str] = set()

    def collect(outs):
        for _, _, stderr in (out for out in outs if isinstance(out, tuple)):
            for line in stderr.decode(errors="replace").splitlines():
                if line.startswith(TRACE_MARK):
                    report = json.loads(line[len(TRACE_MARK):])
                    merge_stats(stats, report["stats"])
                    absent.update(report["absent"])

    traced_ops = workloads.build(name, seed, traced=True)
    return (traced_ops, None, collect), lambda: (stats, sorted(absent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weylchar" / "__init__.py").is_file():
        print(f"no weylchar package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    prepare_environment()
    import weylchar

    if SRC.resolve() not in Path(weylchar.__file__).resolve().parents:
        print(f"weylchar imported from {weylchar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    name, seed = args.workload, args.seed
    setups = measure_setup(name, seed)
    ops = workloads.build(name, seed)

    if not args.trace:
        [passes] = run_rounds(workloads, name, seed, [(ops, None, None)], args.seconds)
        # cli_session's program runs in children; RUSAGE_CHILDREN is the largest.
        who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
        ru = resource.getrusage(who)
        latencies = [t for p in passes for t in p.latencies]
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall for p in passes), "unit": "s"},
            "op_p50_ms": {"value": 1000 * percentile(latencies, 50), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * percentile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": ru.ru_maxrss / 1024, "unit": "MB"},
        }
        absent, errors = [], {}
    else:
        # Untraced and traced passes alternate, so both see the same warm-up
        # and the same load from the rest of the host.
        leg, report = traced_leg(workloads, name, seed, ops)
        passes, traced = run_rounds(workloads, name, seed, [(ops, None, None), leg], args.seconds)
        stats, absent = report()
        overhead = (statistics.median(p.wall for p in traced)
                    / statistics.median(p.wall for p in passes) - 1)
        metrics = layer_metrics(stats, len(traced), setups, overhead)
        errors = {k: v["errors"] for k, v in stats.items() if v.get("errors")}
        passes = passes + traced
        latencies = [t for p in passes for t in p.latencies]

    attempted = sum(p.checks for p in passes)
    failures = [f for p in passes for f in p.failures]
    misses = [m for p in passes for m in p.misses]
    edge_ops = sum(1 for op in ops if op.known_edge)
    record = {
        "workload": name,
        "trace": args.trace,
        "env": environment(seed),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "latency_samples": len(latencies),
        "setup_samples": len(setups),
        "failures": sorted({f"{n}: {r}" for n, r in failures})[:50],
        "known_edges": {
            "attempted": edge_ops * len(passes),
            "missed": len(misses),
            "fail_frac": len(misses) / (edge_ops * len(passes)) if edge_ops else 0.0,
            "missing": sorted({f"{n}: {r}" for n, r in misses}),
        },
        "absent": absent,
        "errors": errors,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
