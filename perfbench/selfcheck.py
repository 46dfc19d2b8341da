"""The benchmark's own tests.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selfcheck.py

(The file name keeps it out of the repository's default test collection;
these tests run the program for about a minute.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import jsonschema  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, is_count  # noqa: E402
from worker import Runner  # noqa: E402

from skewflow import cli, gallery, reports  # noqa: E402


def _runner():
    return Runner(cli.main, workloads.Checker(gallery, reports.TAG_COMPATIBLE))


def _traced_cycle(workload, seed=1):
    """Per-layer metrics of one traced cycle, and the runner that ran it."""
    runner = _runner()
    tracer = Tracer()
    tracer.install()
    try:
        runner.cycle(workloads.cycle(workload, seed), tracer)
    finally:
        tracer.uninstall()
    return tracer.metrics(), runner


@pytest.fixture(scope="module")
def ratio_grid_layers():
    return [_traced_cycle("ratio-grid", seed) for seed in (1, 2)]


@pytest.fixture(scope="module")
def sweep_mixed_layers():
    return _traced_cycle("sweep-mixed")


def test_reports_validate_against_schema():
    with open(ROOT / "src" / "skewflow" / "schema" / "report.schema.json") as fh:
        validator = jsonschema.Draft7Validator(json.load(fh))
    runner = _runner()
    ops = [op for w in workloads.WORKLOADS.values() for op in w if op.kind != "sweep"]
    ops.append(workloads.WORKLOADS["sweep-mixed"][2])  # its error report is JSON
    for op in ops:
        runner.call(op)
    assert len(runner.refs) == len(ops)
    for key, text in runner.refs.items():
        errors = list(validator.iter_errors(json.loads(text)))
        assert not errors, f"{key}: {errors[0].message}"


def test_ratio_grid_reaches_no_quadrature(ratio_grid_layers):
    layers, runner = ratio_grid_layers[0]
    assert runner.failed == 0
    assert layers["quadrature.integrals"] == 0
    assert layers["quadrature.evals"] == 0
    assert layers["gallery.log_diag.calls"] > 0


def test_sweep_mixed_reaches_quadrature_retries(sweep_mixed_layers):
    layers, runner = sweep_mixed_layers
    assert layers["quadrature.retries"] > 0
    assert layers["quadrature.budget_hits"] > 0
    assert layers["quadrature.overflows"] > 0
    assert layers["cli.sweep.rows"] == 10
    # the known failure: rate=-4 exits 2 on an overflow escaping datko-d
    assert runner.failed == 1 and runner.wrong == 0
    (problem,) = runner.problems
    assert problem.startswith("sweep c: rate=-4: exit code 2")


def test_layer_counts_repeat_across_traced_runs(ratio_grid_layers):
    (first, _), (second, _) = ratio_grid_layers
    counts = [k for k in first if is_count(k)]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_checker_flags_wrong_outputs():
    checker = workloads.Checker(gallery, reports.TAG_COMPATIBLE)
    runner = _runner()
    classify = workloads._classify("tsint")
    criteria = workloads.WORKLOADS["ratio-grid"][0]
    sweep = workloads.WORKLOADS["sweep-mixed"][0]
    for op in (classify, criteria, sweep):
        runner.call(op)
    assert runner.failed == 0

    doc = json.loads(runner.refs[classify.key])
    doc["verdict"] = "US-not-UES"
    assert checker.check(classify, 0, json.dumps(doc))[1] == "verdict US-not-UES disagrees with tag ES"

    doc = json.loads(runner.refs[criteria.key])
    doc["criteria"][0]["verdict"] = "inconclusive"
    assert "did not pass" in checker.check(criteria, 0, json.dumps(doc))[1]

    lines = runner.refs[sweep.key].splitlines(keepends=True)
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert "lexicographic" in checker.check(sweep, 0, "".join(swapped))[1]
    assert checker.check(sweep, 0, runner.refs[sweep.key]) == (5, None)


def test_runner_flags_output_drift():
    op = workloads.WORKLOADS["sweep-mixed"][0]
    good = _runner()
    good.call(op)
    text = good.refs[op.key]
    outputs = iter([text, text.replace("UES,1.0", "UES,1.5", 1)])

    def drifting_main(argv):
        sys.stdout.write(next(outputs))
        return 0

    runner = Runner(drifting_main, workloads.Checker(gallery, reports.TAG_COMPATIBLE))
    runner.call(op)
    runner.call(op)
    assert runner.failed == 1 and runner.wrong == 1
    assert "differs from an earlier call" in next(iter(runner.problems))


def test_benchmark_json_lists_the_emitted_metrics(ratio_grid_layers):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {w["name"] for w in spec["workloads"]}
    # ratio-grid runs on request and in these tests; the known failure stays gated
    assert gated == set(workloads.WORKLOADS) - {"ratio-grid"}
    assert spec["command"][-1] == "perfbench/run.py" and spec["paths"] == ["perfbench"]
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.E2E_UNITS.items())
    layers, _ = ratio_grid_layers[0]
    emitted = set(layers) | {"trace.systems_per_s", "trace.overhead"} | {
        "gallery.log_diag.per_s." + type(gallery.build(n).cocycle).__name__
        for n in workloads.GALLERY} | {"gallery.log_diag.per_s.DeclarativeCocycle"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_run_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ratio-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
