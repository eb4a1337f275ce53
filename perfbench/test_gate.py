"""The benchmark's output gate counts a corrupted output as a failure.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q perfbench/test_gate.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _outputs(ops):
    return [op.call() for op in ops]


def test_clean_outputs_pass():
    ops = [op for op in workloads.build("exact_sweep", 5) if op.name.startswith("identity d=4")]
    checks, failures, misses = workloads.check_outputs("exact_sweep", 5, ops, _outputs(ops))
    assert checks == len(ops) and failures == [] and misses == []


def test_corrupted_moment_is_a_failure():
    ops = [op for op in workloads.build("exact_sweep", 5) if op.name.startswith("identity d=4")]
    outs = _outputs(ops)
    m2, m4, m2c, m4c, est = outs[7]
    outs[7] = (m2, m4, m2c, m4c + Fraction(1, 3), est)
    _, failures, _ = workloads.check_outputs("exact_sweep", 5, ops, outs)
    assert [name for name, _ in failures] == [ops[7].name]


def test_corrupted_checksum_and_digest_are_failures():
    ops = workloads.build("deep_tower", workloads.PINNED_SEED)
    outs = _outputs(ops)
    i = next(i for i, op in enumerate(ops) if op.name.startswith("bench_gt tower"))
    counts = dict(outs[i])
    key = next(iter(counts))
    counts[key] += 1
    outs[i] = counts
    _, failures, _ = workloads.check_outputs("deep_tower", workloads.PINNED_SEED, ops, outs)
    assert {name for name, _ in failures} == {
        ops[i].name, "bench_gt tower checksum", "exact outputs digest"}


def test_raised_op_is_a_failure():
    ops = workloads.build("float_checks", 1)[:3]
    outs = [workloads.Raised("ValueError: boom")] + _outputs(ops[1:])
    _, failures, _ = workloads.check_outputs("float_checks", 1, ops, outs)
    assert failures == [(ops[0].name, "ValueError: boom")]


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in run.per_layer_names()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
