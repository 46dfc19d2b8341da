"""Span tracing for the benchmark's traced run, installed from outside the program.

The tracer replaces the public functions of each skewflow module with
wrappers, in every module that binds them (``integrate_finite`` is bound in
``quadrature``, ``uniform``, ``nonuniform`` and the package itself, for
example), and restores them on ``uninstall``.  ``src/`` is not modified.

Coarse calls (a CLI call, a build, a panel, a criterion, a probe grid, a
growth fit, a top-level quadrature call) are recorded as spans: name,
start, end, parent span and operation id, kept in memory and written out
when the run ends.  Fine calls (``log_diag``, the core log norms, integrand
evaluations) run hundreds of thousands of times per call; they are timed
and counted into their layer's totals without a span record each, so the
trace stays small.  Either way a layer's self time is its duration minus
the time of the calls it made into other layers.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time

# (module, function) -> metric layer name; all recorded as spans
_SPANS = {
    ("skewflow.gallery", "build"): "cli.build",
    ("skewflow.cli", "check_ground_truth"): "cli.ground_truth",
    ("skewflow.nonuniform", "run_nonuniform_panel"): "nonuniform.panel",
    ("skewflow.uniform", "run_uniform_panel"): "uniform.panel",
    ("skewflow.growth", "estimate_growth"): "growth.estimate",
    ("skewflow.probes", "ratio_data"): "probes.ratio_data",
}

_DATKO = {("vector", "continuous"): "datko-v", ("operator", "continuous"): "datko-op",
          ("vector", "discrete"): "datko-d"}

# criterion function -> criterion id, from the call's bound arguments
_CRITERIA = {
    ("skewflow.uniform", "fit_exponential_decay"): lambda a: "fit-exp",
    ("skewflow.uniform", "test_uniform_stability"): lambda a: "unif-stab",
    ("skewflow.uniform", "test_divergent_minorant"): lambda a: "minorant",
    ("skewflow.uniform", "test_half_decay"):
        lambda a: "half-decay" if a["mode"] == "continuous" else "half-decay-d",
    ("skewflow.uniform", "test_datko"): lambda a: _DATKO[(a["form"], a["time"])],
    ("skewflow.uniform", "test_barbashin"):
        lambda a: "barbashin-d" if a["time"] == "discrete"
        else "barbashin-v" if a["form"] == "vector-dual" else "barbashin-op",
    ("skewflow.uniform", "test_discrete_decay"): lambda a: "decay-d",
    ("skewflow.nonuniform", "fit_nonuniform_decay"): lambda a: "fit-exp-nu",
    ("skewflow.nonuniform", "test_decaying_majorant"): lambda a: "majorant",
    ("skewflow.nonuniform", "test_datko_nonuniform"):
        lambda a: _DATKO[(a["form"], a["time"])] + "-nu",
    ("skewflow.nonuniform", "test_barbashin_nonuniform"):
        lambda a: "barbashin-nu" if a["time"] == "continuous" else "barbashin-d-nu",
}

_QUADRATURE = ("integrate_finite", "integrate_tail", "sum_tail")
_LOG_NORMS = ("log_vector_norm", "log_operator_norm", "log_adjoint_dual_norm")

# test_datko reached through the CLI is the ground-truth check's pow:2 re-run,
# timed as part of cli.ground_truth rather than as a datko criterion
_UNWRAPPED = {("skewflow.cli", "test_datko")}

UNIFORM_IDS = (
    "fit-exp", "unif-stab", "minorant", "half-decay", "half-decay-d",
    "datko-v", "datko-op", "datko-d", "barbashin-v", "barbashin-op", "barbashin-d", "decay-d",
)
NONUNIFORM_IDS = (
    "fit-exp-nu", "majorant", "datko-v-nu", "datko-op-nu", "datko-d-nu",
    "barbashin-nu", "barbashin-d-nu",
)
INTEGRAL_IDS = (
    "datko-v", "datko-op", "datko-d", "barbashin-v", "barbashin-op", "barbashin-d",
    "datko-v-nu", "datko-op-nu", "datko-d-nu", "barbashin-nu", "barbashin-d-nu",
)


class Tracer:
    """Spans and per-layer totals of one traced run."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []            # (span_id, parent_id, op_id, name, start_s, end_s)
        self.stack = [[0.0, 0]]    # open calls: [child seconds, id of nearest span]
        self.next_id = 1
        self.op = 0
        self.crit = None           # innermost open criterion, e.g. "uniform.datko-v"
        self.quad = 0              # depth of open quadrature calls
        self.acc = {}              # layer name -> [calls, total seconds, self seconds]
        self.counts = {}
        self.keys = []             # per system built in the current op: its distinct log_diag arguments
        self._undo = []

    # -- accounting -------------------------------------------------------

    def _acc(self, name):
        return self.acc.setdefault(name, [0, 0.0, 0.0])

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def reset(self):
        """Zero the per-layer totals (spans are kept)."""
        for a in self.acc.values():
            a[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def run(self, name, f, args, kwargs, record=True):
        """Call f as one call of layer ``name``; a span when ``record``."""
        acc = self._acc(name)
        stack = self.stack
        parent = stack[-1][1]
        if record:
            sid = self.next_id
            self.next_id += 1
        frame = [0.0, sid if record else parent]
        stack.append(frame)
        t0 = self.clock()
        try:
            return f(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            dur = t1 - t0
            stack[-1][0] += dur
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - frame[0]
            if record:
                self.spans.append((sid, parent, self.op, name, t0, t1))

    def leaf(self, name, f, on_call=None):
        """Fast wrapper for fine calls: timed and counted, no span record."""
        acc = self._acc(name)
        stack = self.stack
        clock = self.clock

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
        return wrapper

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            return self.run(name, f, args, kwargs)
        return wrapper

    def _build(self, f):
        """gallery.build: a span, and a counting proxy around the cocycle."""
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            system = self.run("cli.build", f, args, kwargs)
            keys = set()
            self.keys.append(keys)
            proxy = _CountingCocycle(self.leaf("gallery.log_diag", system.cocycle.log_diag,
                                               keys.add))
            return dataclasses.replace(system, cocycle=proxy)
        return wrapper

    def _ratio_data(self, f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            data = self.run("probes.ratio_data", f, args, kwargs)
            self.count("probes.ratio_data.probes", len(data.probes))
            return data
        return wrapper

    def _criterion(self, module, f, cid_of):
        sig = inspect.signature(f)
        prefix = module.rsplit(".", 1)[1]

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if self.crit is not None:  # a helper call inside another criterion
                return f(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.crit = f"{prefix}.{cid_of(bound.arguments)}"
            try:
                return self.run(self.crit, f, args, kwargs)
            finally:
                self.crit = None
        return wrapper

    def _log_norm(self, f):
        inner = self.leaf("core.log_norm", f)
        evals = self.counts

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            crit = self.crit
            if crit is not None:
                key = crit + ".evals"
                evals[key] = evals.get(key, 0) + 1
            return inner(*args, **kwargs)
        return wrapper

    def _quadrature(self, fname, f, errors):
        name = "quadrature." + fname
        integrand = "quadrature.term" if fname == "sum_tail" else "quadrature.integrand"
        non_finite, budget = errors

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            outer = self.quad == 0
            if outer:  # evaluations are counted once, at the outermost call
                if args:
                    args = (self.leaf(integrand, args[0]),) + args[1:]
                elif "f" in kwargs:
                    kwargs = dict(kwargs, f=self.leaf(integrand, kwargs["f"]))
            self.quad += 1
            try:
                return self.run(name, f, args, kwargs, record=outer)
            except (non_finite, budget) as exc:
                if fname == "integrate_tail":
                    self.count("quadrature.retries")  # the caller halves the horizon
                if outer:
                    self.count("quadrature.overflows" if isinstance(exc, non_finite)
                               else "quadrature.budget_hits")
                raise
            finally:
                self.quad -= 1
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions in the loaded skewflow modules."""
        from skewflow import errors

        plan = []
        for (mod, fname), name in _SPANS.items():
            if fname == "build":
                plan.append((mod, fname, self._build))
            elif fname == "ratio_data":
                plan.append((mod, fname, self._ratio_data))
            else:
                plan.append((mod, fname, functools.partial(self._span, name)))
        for (mod, fname), cid_of in _CRITERIA.items():
            plan.append((mod, fname, functools.partial(self._criterion, mod, cid_of=cid_of)))
        for fname in _QUADRATURE:
            plan.append(("skewflow.quadrature", fname, functools.partial(
                self._quadrature, fname, errors=(errors.NonFinite, errors.BudgetExceeded))))
        for fname in _LOG_NORMS:
            plan.append(("skewflow.core", fname, self._log_norm))

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "skewflow" or n.startswith("skewflow."))]
        for mod, fname, make in plan:
            orig = getattr(sys.modules.get(mod), fname, None)
            if orig is None:  # the function is gone; its layer reads zero
                continue
            wrapper = make(orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig and (m.__name__, attr) not in _UNWRAPPED:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        while self._undo:
            m, attr, orig = self._undo.pop()
            setattr(m, attr, orig)

    # -- results ----------------------------------------------------------

    def call_op(self, op_id, f, *args):
        """Run one CLI call as the root span of operation ``op_id``."""
        self.op = op_id
        self.keys.clear()
        try:
            return self.run("cli.main", f, args, {})
        finally:
            self.count("gallery.log_diag.distinct", sum(len(k) for k in self.keys))
            self.keys.clear()

    def metrics(self) -> dict:
        """Per-layer totals since the last reset, by metric name."""
        def calls(name):
            return self.acc.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return self.acc.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return self.acc.get(name, [0, 0.0, 0.0])[2]

        c = self.counts.get
        log_diag = calls("gallery.log_diag")
        integrals = calls("quadrature.integrate_finite")
        m = {
            "gallery.log_diag.calls": log_diag,
            "gallery.log_diag.reuse": log_diag / c("gallery.log_diag.distinct", 0)
            if log_diag else 0.0,
            "core.log_norm.calls": calls("core.log_norm"),
            "core.log_norm.self_s": own("core.log_norm"),
            "probes.ratio_data.calls": calls("probes.ratio_data"),
            "probes.ratio_data.probes": c("probes.ratio_data.probes", 0),
            "probes.ratio_data.self_s": own("probes.ratio_data"),
            "growth.estimate.calls": calls("growth.estimate"),
            "growth.estimate.self_s": own("growth.estimate"),
            "quadrature.integrals": integrals,
            "quadrature.tails": calls("quadrature.integrate_tail"),
            "quadrature.series": calls("quadrature.sum_tail"),
            "quadrature.evals": calls("quadrature.integrand") + calls("quadrature.term"),
            "quadrature.evals_per_integral": calls("quadrature.integrand") / integrals
            if integrals else 0.0,
            "quadrature.retries": c("quadrature.retries", 0),
            "quadrature.budget_hits": c("quadrature.budget_hits", 0),
            "quadrature.overflows": c("quadrature.overflows", 0),
            "quadrature.self_s": sum(own("quadrature." + f) for f in _QUADRATURE),
            "quadrature.integrand_s": total("quadrature.integrand") + total("quadrature.term"),
        }
        for prefix, ids in (("uniform", UNIFORM_IDS), ("nonuniform", NONUNIFORM_IDS)):
            for cid in ids:
                m[f"{prefix}.{cid}.s"] = total(f"{prefix}.{cid}")
        for prefix, ids in (("uniform", UNIFORM_IDS), ("nonuniform", NONUNIFORM_IDS)):
            for cid in ids:
                if cid in INTEGRAL_IDS:
                    m[f"{prefix}.{cid}.evals"] = c(f"{prefix}.{cid}.evals", 0)
        m.update({
            "uniform.panel.self_s": own("uniform.panel"),
            "nonuniform.panel.self_s": own("nonuniform.panel"),
            "cli.ground_truth.s": total("cli.ground_truth"),
            "cli.build.s": total("cli.build"),
            "cli.self_s": own("cli.main"),
            "cli.sweep.rows": c("cli.sweep.rows", 0),
        })
        return m

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")


class _CountingCocycle:
    """Stands in for a gallery cocycle; every log_diag call goes through the tracer."""

    def __init__(self, log_diag):
        self.log_diag = log_diag


# metric names whose values are counts (or ratios of counts) and must repeat exactly
def is_count(name: str) -> bool:
    return not (name.endswith("_s") or name.endswith(".s"))
