"""skewflow benchmark: classify and sweep throughput on three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gallery-classify --seed 1 --seconds 50 --trace 0

``--workload all`` runs the three workloads in turn; BENCHMARK.json gates
gallery-classify and sweep-mixed.  The program is run from the checkout's
``src/`` (no install needed), with BLAS and OpenMP held to one thread.
Each run

1. times ``setup_s``: a fresh interpreter importing ``skewflow.cli`` and
   building the workload's systems: one discarded warm-up, then six timed
   before and six after the timed phase;
2. starts worker.py, which calls ``skewflow.cli.main(argv)`` in-process in
   whole workload cycles for ``--seconds`` and checks every output;
3. validates the JSON reports against ``report.schema.json``;
4. prints each metric by name and unit, then one JSON result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics from traced cycles and writes the spans to
``.bench_out/``.  See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_RUNS = 6  # timed set-ups before the timed phase, and as many after it
E2E_UNITS = {"systems_per_s": "systems/s", "call_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DEADLINE_S = 165.0  # a run must end within 180 s


def unit_of(name: str) -> str:
    if name.startswith("gallery.log_diag.per_s."):
        return "calls/s"
    if name == "gallery.log_diag.reuse":
        return "calls/key"
    if name == "quadrature.evals_per_integral":
        return "evals/integral"
    if name == "trace.systems_per_s":
        return "systems/s"
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def time_setup(env, systems, warm_up) -> list:
    """Wall seconds of SETUP_RUNS fresh-interpreter set-ups, after one untimed if warm_up.

    The wait blocks in waitpid: a wait with a timeout polls at up to 50 ms
    intervals, which rounds each time up to the next poll.  A timer kills a
    probe that hangs.
    """
    spec = json.dumps(systems)
    walls = []
    for _ in range(SETUP_RUNS + warm_up):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), spec], env=env,
                              cwd=ROOT, stdout=subprocess.DEVNULL) as proc:
            watchdog = threading.Timer(60.0, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
        walls.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}")
    return walls[warm_up:]


def schema_problems(references: dict) -> list:
    """Reports that do not validate against the program's own schema."""
    try:
        import jsonschema
    except ImportError:
        print("note: jsonschema is not installed; reports were not schema-checked")
        return []
    with open(ROOT / "src" / "skewflow" / "schema" / "report.schema.json") as fh:
        validator = jsonschema.Draft7Validator(json.load(fh))
    out = []
    for key, text in sorted(references.items()):
        errors = sorted(validator.iter_errors(json.loads(text)), key=lambda e: list(e.path))
        if errors:
            out.append((key, errors[0].message))
    return out


def run_workload(workload, seed, seconds, trace, env) -> dict:
    """One benchmark run of one workload; returns the result object."""
    deadline = time.monotonic() + DEADLINE_S
    setup = time_setup(env, workloads.systems(workload), warm_up=True) if not trace else []
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / f"spans-{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    w = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:  # set-ups on both sides of the timed phase see more of the host's phases
        setup += time_setup(env, workloads.systems(workload), warm_up=False)

    failed, wrong = w["failed"], w["wrong"]
    problems = dict(w["problems"])
    for key, message in schema_problems(w["references"]):
        n = len(w["calls"].get(key, ()))
        failed, wrong = failed + n, wrong + n
        problems[f"{key}: report fails report.schema.json: {message}"] = n

    cycles = w["cycles"]
    plain = [(sec, n) for sec, n, traced in cycles if not traced]
    n_calls = sum(len(v) for v in w["calls"].values())
    lines = [f"{workload}  seed {seed}  {len(cycles)} cycles  {n_calls} calls  "
             f"{sum(c[0] for c in cycles):.1f} s in calls"]
    if not trace:
        seconds = sum(sec for sec, n in plain)
        metrics = {
            "systems_per_s": sum(n for sec, n in plain) / seconds,
            # the median over call types of each type's mean wall time: a pooled
            # median would sit on the gap between two call types (there is an
            # even number of them) and read the extremes of both, and a mean
            # follows the host's slow and fast phases smoothly where a median
            # of a few calls jumps between them
            "call_s.p50": statistics.median(statistics.fmean(v) for v in w["calls"].values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": w["peak_rss_kb"] / 1024.0,
        }
        units = E2E_UNITS
        samples = {"systems_per_s": f"{sum(n for sec, n in plain)} systems in {seconds:.1f} s",
                   "call_s.p50": f"{len(w['calls'])} call types, n={n_calls} calls",
                   "setup_s": f"median of {len(setup)} fresh interpreters",
                   "peak_rss_mb": "worker process"}
    else:
        metrics, units, samples, count_drift = layer_metrics(w)
        if count_drift:
            wrong += 1
            problems["per-layer counts differ between traced cycles: "
                     + ", ".join(count_drift[:5])] = 1
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]:<15} {samples.get(name, '')}")
    lines.append(f"  {'failed_frac':<44} {failed / max(1, w['attempted']):>14.6g} "
                 f"{'ratio':<15} {failed} of {w['attempted']} operations")
    for msg, n in sorted(problems.items()):
        lines.append(f"  failed x{n}: {msg}")
    if trace:
        lines.append(f"  {w['spans']} spans written to .bench_out/")
    return {
        "lines": lines,
        "result": {
            "correct": wrong == 0,
            "attempted": max(1, w["attempted"]),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def layer_metrics(w):
    """Per-layer metrics from the traced cycles of a worker result."""
    from spans import is_count

    layers = w["layers"]
    drift = [k for k in layers[0] if is_count(k) and any(m[k] != layers[0][k] for m in layers)]
    metrics = {}
    for k in layers[0]:
        metrics[k] = layers[0][k] if is_count(k) else statistics.median(m[k] for m in layers)
    metrics.update(w["microbench"])
    traced = [sec for sec, n, t in w["cycles"] if t]
    plain = [sec for sec, n, t in w["cycles"] if not t]
    systems = w["cycles"][0][1]
    metrics["trace.systems_per_s"] = systems / statistics.median(traced)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    units = {k: unit_of(k) for k in metrics}
    samples = {k: "exact, per cycle" for k in layers[0] if is_count(k)}
    samples.update({k: f"per cycle, median of {len(layers)} traced cycles"
                    for k in layers[0] if not is_count(k)})
    samples["trace.overhead"] = (f"traced {statistics.median(traced):.3f} s vs untraced "
                                 f"{statistics.median(plain):.3f} s per cycle")
    return metrics, units, samples, drift


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "skewflow" / "cli.py").is_file():
        return fail(f"no skewflow source at {ROOT / 'src' / 'skewflow'}; "
                    "run from the root of a skewflow checkout")
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    # one thread: a BLAS pool idling next to the single caller is noise on two cores
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, env)
            print("\n".join(results[name]["lines"]), flush=True)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))
    if len(names) == 1:
        final = results[names[0]]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in results.values()),
            "attempted": sum(r["result"]["attempted"] for r in results.values()),
            "failed": sum(r["result"]["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": v for n, r in results.items()
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
