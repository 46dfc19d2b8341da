"""The benchmark's workloads: the CLI calls of one cycle and the checks on their output.

A workload is a fixed list of ``skewflow`` command lines.  The seed only
sets their order within a cycle; every cycle repeats that order.  Expected
results are derived from the ground-truth tags that ``gallery.build``
declares, never from labels written here.

This module imports nothing from skewflow, so run.py can read the
workload tables without importing the program.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
import re
from dataclasses import dataclass

GALLERY = ("shift-metric-demo", "diag3", "scalar_decay", "bounded_ratio", "tsint", "spike")

# the criteria that run on probe grids alone: no quadrature is reached
GRID_CRITERIA = (
    "fit-exp", "unif-stab", "minorant", "half-decay", "half-decay-d",
    "decay-d", "fit-exp-nu", "majorant",
)

SWEEP_GRID = "rate=-1,0,0.5,1,2"


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload cycle."""

    key: str      # short label, unique within the workload
    kind: str     # "classify" (full panel), "criteria" (selected criteria), "sweep"
    argv: tuple


def _classify(name):
    return Op(f"classify {name}", "classify", ("classify", "--system", name))


def _criteria(name):
    return Op(
        f"criteria {name}",
        "criteria",
        ("classify", "--system", name, "--grid-step", "0.05", "--criteria", ",".join(GRID_CRITERIA)),
    )


def _sweep(key, sweep, *extra):
    return Op(key, "sweep", ("sweep", "--system", "shift-metric-demo", "--sweep", sweep, *extra))


WORKLOADS = {
    # the user-facing path; quadrature dominates, and the three UES systems
    # re-run the forward tail tests with the pow:2 gauge in the ground-truth check
    "gallery-classify": tuple(_classify(n) for n in GALLERY),
    # probe grids, core log norms, growth and fits with zero quadrature calls;
    # diag3 has three vectors per (t, s, x), shift-metric-demo one
    "ratio-grid": (_criteria("diag3"), _criteria("shift-metric-demo")),
    # quadrature on its divergence, evaluation-budget and overflow paths
    "sweep-mixed": (
        _sweep("sweep a: rate grid", SWEEP_GRID),
        _sweep("sweep b: rate grid, eval-cap 2000", SWEEP_GRID, "--eval-cap", "2000"),
        _sweep("sweep c: rate=-4", "rate=-4"),
    ),
}


def cycle(workload: str, seed: int) -> list:
    """The ops of one cycle, in the order the seed sets."""
    ops = list(WORKLOADS[workload])
    random.Random(seed).shuffle(ops)
    return ops


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def sweep_ranges(argv) -> dict:
    """Parameter name -> values of an op's --sweep flags, as the CLI parses them."""
    out = {}
    for i, a in enumerate(argv):
        if a == "--sweep":
            k, vs = argv[i + 1].split("=", 1)
            out[k] = [float(v) for v in vs.split(",")]
    return out


def systems(workload: str) -> list:
    """(name, params) of every distinct system the workload's cycle builds."""
    out = []
    for op in WORKLOADS[workload]:
        name = _flag(op.argv, "--system")
        if op.kind == "sweep":
            ranges = sweep_ranges(op.argv)
            keys = sorted(ranges)
            for combo in itertools.product(*(ranges[k] for k in keys)):
                out.append((name, dict(zip(keys, combo))))
        else:
            out.append((name, {}))
    unique = []
    for entry in out:
        if entry not in unique:
            unique.append(entry)
    return unique


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def normalize(text: str) -> str:
    """Output with the timestamp blanked: the part that must be byte-stable."""
    return _TIMESTAMP.sub('"timestamp": ""', text)


class Checker:
    """Checks one op's exit code and output against the gallery's tags.

    ``check`` returns ``(systems, problem)``: the number of systems the call
    classified, and None or a one-line description of what was wrong.
    """

    def __init__(self, gallery, compatible):
        self.build = gallery.build  # bound now, so a traced run does not trace the checks
        self.compatible = compatible  # tag -> verdict labels that agree with it

    def tag(self, name, params=None):
        return self.build(name, params or {}).ground_truth

    def agrees(self, label, tag):
        return label in self.compatible.get(tag, (tag,))

    def check(self, op: Op, code: int, text: str):
        if code != 0:
            try:
                detail = json.loads(text).get("error") or "no error field"
            except ValueError:
                detail = "output is not JSON"
            return 0, f"exit code {code}, expected 0: {detail}"
        if op.kind == "sweep":
            return self._sweep(op, text)
        doc = json.loads(text)
        name = _flag(op.argv, "--system")
        if doc.get("system") != name or doc.get("exit_code") != code:
            return 0, f"report names system {doc.get('system')!r}, exit_code {doc.get('exit_code')!r}"
        tag = self.tag(name)
        if op.kind == "classify":
            if not self.agrees(doc.get("verdict"), tag):
                return 0, f"verdict {doc.get('verdict')} disagrees with tag {tag}"
            return 1, None
        # every selected criterion is a necessary condition of UES
        if tag != "UES":
            raise ValueError(f"{op.key}: the criteria workload needs a UES-tagged system, got {tag}")
        got = {c["criterion_id"]: c["verdict"] for c in doc.get("criteria", [])}
        if set(got) != set(GRID_CRITERIA):
            return 0, f"reported criteria {sorted(got)} != selected {sorted(GRID_CRITERIA)}"
        bad = sorted(cid for cid, v in got.items() if v != "pass")
        if bad:
            return 0, f"tag UES but {', '.join(bad)} did not pass"
        return 1, None

    def _sweep(self, op: Op, text: str):
        rows = list(csv.reader(io.StringIO(text)))
        ranges = sweep_ranges(op.argv)
        names = sorted(ranges)
        combos = list(itertools.product(*(ranges[n] for n in names)))
        if not rows or rows[0][: len(names)] != names or rows[0][len(names)] != "verdict":
            return 0, f"sweep header {rows[0] if rows else None} does not start with {names} + verdict"
        body = rows[1:]
        if [tuple(float(c) for c in r[: len(names)]) for r in body] != combos:
            return 0, "sweep rows are not in lexicographic parameter order"
        name = _flag(op.argv, "--system")
        for combo, row in zip(combos, body):
            tag = self.tag(name, dict(zip(names, combo)))
            if not self.agrees(row[len(names)], tag):
                return 0, f"sweep row {combo}: verdict {row[len(names)]} disagrees with tag {tag}"
        return len(body), None
