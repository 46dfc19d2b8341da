"""Timed phase of one benchmark run, in a process that runs only this workload.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Calls
``skewflow.cli.main(argv)`` in-process, one call at a time (a closed loop
with one caller), repeating whole cycles of the workload until the time is
up, and checks every call's output.  Prints one JSON line for run.py.

With ``--trace 1`` it alternates traced and untraced cycles: traced cycles
give the per-layer metrics, and the two kinds of cycle together give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    import skewflow
    from skewflow import cli, gallery, reports

    src = os.path.realpath(os.environ["PYTHONPATH"].split(os.pathsep)[0])
    if not os.path.realpath(skewflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"skewflow was imported from {skewflow.__file__}, not from {src}")

    ops = workloads.cycle(args.workload, args.seed)
    checker = workloads.Checker(gallery, getattr(reports, "TAG_COMPATIBLE", {}))
    run = Runner(cli.main, checker)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    run.call(ops[0], timed=False)  # warm-up; its output is the first reference
    cycles = []                    # (seconds, systems, traced)
    traced_metrics = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(cycles) % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        try:
            sec, systems = run.cycle(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        cycles.append((sec, systems, traced))
        if traced:
            traced_metrics.append(tracer.metrics())
        # stop at the cycle boundary nearest to the time limit
        elapsed = time.perf_counter() - start
        done = elapsed + elapsed / len(cycles) / 2 >= args.seconds
        if tracer and (len(cycles) < 3 or not cycles[-1][2]):
            done = False  # traced runs end on a traced cycle, with at least two of them
        if done:
            break

    out = {
        "cycles": cycles,
        "calls": run.walls,
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong,
        "problems": run.problems,
        "references": {k: v for k, v in run.refs.items() if v.lstrip().startswith("{")},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        out["layers"] = traced_metrics
        out["microbench"] = log_diag_rates(gallery)
        out["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write(args.trace_out)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


class Runner:
    """Calls the CLI, times each call and checks each output."""

    def __init__(self, main, checker):
        self.main = main
        self.checker = checker
        self.walls = {}          # op key -> wall seconds of its timed calls
        self.refs = {}           # op key -> normalized output of its first call
        self.attempted = 0
        self.failed = 0
        self.wrong = 0           # failures where the call claimed success
        self.problems = {}       # description -> occurrences
        self.op_id = 0

    def call(self, op, timed=True, tracer=None):
        buf = io.StringIO()
        self.op_id += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = self.main(list(op.argv))
                else:
                    code = tracer.call_op(self.op_id, self.main, list(op.argv))
            problem = None
        except Exception as exc:  # any escape from the CLI is a failed operation
            code, problem = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        text = buf.getvalue()

        systems = 0
        claimed_success = code == 0
        if problem is None:
            systems, problem = self.checker.check(op, code, text)
        norm = workloads.normalize(text)
        ref = self.refs.setdefault(op.key, norm)
        if problem is None and norm != ref:
            problem = "output differs from an earlier call of the same operation"
        if timed:
            self.walls.setdefault(op.key, []).append(wall)
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.wrong += claimed_success
                msg = f"{op.key}: {problem}"
                self.problems[msg] = self.problems.get(msg, 0) + 1
        if tracer is not None and op.kind == "sweep":
            tracer.count("cli.sweep.rows", systems)
        return wall, (systems if problem is None else 0)

    def cycle(self, ops, tracer=None):
        total = 0.0
        systems = 0
        for op in ops:
            wall, n = self.call(op, tracer=tracer)
            total += wall
            systems += n
        return total, systems


def log_diag_rates(gallery, n=20000, repeats=5) -> dict:
    """log_diag calls per second for each cocycle class, on a fixed input stream."""
    import random

    systems = [gallery.build(name) for name in workloads.GALLERY]
    systems.append(gallery.build_custom({"entries": [
        [{"kind": "linear", "coef": -1.0}, {"kind": "tsin", "coef": 0.5}],
        [{"kind": "log1p", "coef": 1.0}, {"kind": "sin", "coef": 2.0}],
    ]}))
    rng = random.Random(20080410)
    out = {}
    for system in systems:
        name = "gallery.log_diag.per_s." + type(system.cocycle).__name__
        if name in out:
            continue
        stream = []
        for _ in range(n):
            s = rng.uniform(0.0, 6.0)
            stream.append((s + rng.uniform(0.0, 40.0), s, rng.choice(system.state_samples)))
        f = system.cocycle.log_diag
        rates = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for t, s, x in stream:
                f(t, s, x)
            rates.append(n / (time.perf_counter() - t0))
        out[name] = statistics.median(rates)
    return out


if __name__ == "__main__":
    sys.exit(main())
