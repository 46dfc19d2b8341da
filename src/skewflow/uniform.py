"""Uniform-setting stability criteria and their panel, with the cap N_cap (default 1e3),
and the Datko criteria of both settings.

Forward tail integrals that hit the system's tail cap without settling
are divergence witnesses.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    States,
    System,
    apply,
    dual_norm,
    evolve,
    log_abs,
    log_norms,
    vec_norm,
)
from .errors import BudgetExceeded, DegenerateProbe, MissingGrowthEnvelope
from .gauges import Gauge
from .growth import GrowthEnvelope
from .probes import (
    Groups,
    RatioData,
    backward_pairs,
    discrete_pairs,
    first_max,
    ratio_data,
    s_grid,
    tail_probes,
)
from .quadrature import IntegralResult, evaluate, series, simpson, tails
from .reports import (
    FAIL,
    INCONCLUSIVE,
    INCONCLUSIVE_VERDICT,
    PASS,
    UES,
    UNIFORM_CRITERIA,
    UNSTABLE,
    US_NOT_UES,
    CriterionReport,
    witness_dict,
)

NU_LADDER = tuple(2.0 ** k for k in range(-4, 4))

# blocks or terms of one tail integrated ahead in a round (see quadrature.tails)
AHEAD = 64

HALF_DECAY_THRESHOLD = 0.5  # fixed by the half-decay characterization
MINORANT_FACTOR = 1e3
MINORANT_MIN_LAG = 10.0


@dataclass(frozen=True)
class DecayFit:
    N: float
    nu: float
    residual: float
    probes_used: int
    skipped: int

    def as_dict(self) -> dict:
        return asdict(self)


def fit_exponential_decay(
    system: System,
    data: RatioData,
    n_cap: float = 1e3,
    ladder=NU_LADDER,
) -> DecayFit | None:
    """Largest ladder rate nu admitting ||Phi(t,t0,x)v|| <= N e^{-nu(t-s)} ||Phi(s,t0,x)v||
    with N <= n_cap on the probes.  Returns None when even the smallest rate
    would need a constant above the cap.
    """
    if not len(data.probes):
        raise DegenerateProbe("no usable decay probes")
    log_cap = math.log(n_cap)
    for nu in sorted(ladder, reverse=True):
        a = data.log_ratio + nu * data.lag
        log_n = a[first_max(a)].item()
        if log_n <= log_cap:
            n = max(1.0, math.exp(log_n))
            # residual of the certified inequality; zero by construction up
            # to rounding, recomputed honestly from the probe logs
            excess = apply(math.exp, np.minimum(a, 700.0)) - n
            resid = max(0.0, excess[first_max(excess)].item())
            return DecayFit(n, nu, resid, len(data.probes), data.skipped)
    return None


def test_uniform_stability(
    system: System, data: RatioData, n_cap: float = 1e3, echo: dict | None = None
) -> CriterionReport:
    """Bounded trajectory-norm ratios: ||Phi(t,t0,x)v|| <= N ||Phi(s,t0,x)v||."""
    worst = data.probes[first_max(data.log_ratio)]
    n = max(1.0, math.exp(min(worst.log_ratio, 700.0)))
    evidence = {"N": n, "n_cap": n_cap, "probes": len(data.probes)}
    if n <= n_cap:
        return CriterionReport("unif-stab", PASS, evidence, config_echo=echo or {})
    return CriterionReport(
        "unif-stab",
        FAIL,
        evidence,
        witness=witness_dict(t=worst.t, s=worst.s, t0=worst.t0, x=worst.x, v=worst.v, ratio=n),
        config_echo=echo or {},
    )


def test_divergent_minorant(
    system: System,
    data: RatioData,
    factor: float = MINORANT_FACTOR,
    min_lag: float = MINORANT_MIN_LAG,
    echo: dict | None = None,
) -> CriterionReport:
    """Existence of a divergent nondecreasing minorant of the inverse ratios.

    f_hat(h) = min over probes at lag h of ||Phi(s,...)v|| / ||Phi(t,...)v||
    is cleaned to its largest nondecreasing minorant (suffix minimum); the
    test passes when the cleaned curve grows by the divergence factor over
    the window.
    """
    by_lag = Groups(data.lag)
    lags = by_lag.keys[0].tolist()
    if len(lags) < 2 or max(lags) < min_lag:
        return CriterionReport("minorant", INCONCLUSIVE, {"reason": "window grid too short",
                               "max_lag": max(lags) if lags else 0.0}, config_echo=echo or {})
    best = by_lag.argmax(data.log_ratio)  # max ratio = min inverse ratio, per lag
    log_fhat = [-r for r in data.log_ratio[best].tolist()]
    # suffix minimum: the largest nondecreasing function below f_hat
    cleaned = list(log_fhat)
    for i in range(len(cleaned) - 2, -1, -1):
        cleaned[i] = min(cleaned[i], cleaned[i + 1])
    gain = cleaned[-1] - cleaned[0]
    table = [[lags[i], math.exp(min(cleaned[i], 700.0))] for i in range(len(lags))]
    evidence = {
        "gain": math.exp(min(gain, 700.0)),
        "required_factor": factor,
        "f_hat": table,
    }
    if gain >= math.log(factor):
        return CriterionReport("minorant", PASS, evidence, config_echo=echo or {})
    worst = data.probes[best[-1]]
    return CriterionReport(
        "minorant",
        FAIL,
        evidence,
        witness=witness_dict(t=worst.t, s=worst.s, t0=worst.t0, x=worst.x, v=worst.v),
        config_echo=echo or {},
    )


def test_half_decay(
    system: System,
    growth_env: GrowthEnvelope | None,
    mode: str = "continuous",
    delta_max: float = 6.0,
    echo: dict | None = None,
) -> CriterionReport:
    """Search for a uniform lag at which every unit trajectory halves.

    Requires an established (non-dubious) growth envelope, since the
    conclusion only follows under that hypothesis.
    """
    if delta_max < 2.0:
        raise ValueError("delta_max must be at least 2")
    if growth_env is None or growth_env.dubious:
        raise MissingGrowthEnvelope("half-decay requires a verified growth envelope")
    cid = "half-decay" if mode == "continuous" else "half-decay-d"
    deltas = ([round(1.1 + 0.1 * k, 10) for k in range(int(round((delta_max - 1.1) / 0.1)) + 1)]
              if mode == "continuous" else [float(k) for k in range(1, int(delta_max) + 1)])
    log_half = math.log(HALF_DECAY_THRESHOLD)
    vectors = system.vector_samples if mode == "continuous" else (None,)
    grid = [(s, x, v) for s in s_grid(system.horizons.s_max) for x in system.state_samples
            for v in vectors]
    svals = np.array([s for s, _, _ in grid])
    states = States.of([x for _, x, _ in grid])
    lw = None if mode != "continuous" else np.stack([log_abs(v) for _, _, v in grid], axis=1)

    def sup_at(delta):
        ln = log_norms(system, svals + delta, svals, states, lw)
        i = int(np.argmax(np.where(np.isnan(ln), -math.inf, ln)))
        if not ln[i] > -math.inf:
            return -math.inf, None
        return float(ln[i]), grid[i]

    for delta in deltas:
        val, worst = sup_at(delta)
        if val <= log_half:
            return CriterionReport(
                cid,
                PASS,
                {"delta": delta, "sup_norm": math.exp(val), "threshold": HALF_DECAY_THRESHOLD},
                config_echo=echo or {},
            )
    s, x, v = worst
    w = witness_dict(s=s, x=x, v=v) if v is not None else witness_dict(s=s, x=x)
    w["norm_at_delta_max"] = math.exp(min(val, 700.0))
    return CriterionReport(
        cid,
        FAIL,
        {"delta_max": deltas[-1], "sup_norm": math.exp(min(val, 700.0)), "threshold": HALF_DECAY_THRESHOLD},
        witness=w,
        config_echo=echo or {},
    )


# ---------------------------------------------------------------------------
# forward (tail) and backward (adjoint) integral criteria
#
# Both settings share one forward-tail and one backward-adjoint kernel.  The
# nonuniform criteria weight every norm by e^{alpha (.)}; the uniform ones
# pass alpha = 0, which leaves every value bit-identical to the plain norm.

_DATKO_IDS = {
    ("vector", "continuous"): "datko-v",
    ("operator", "continuous"): "datko-op",
    ("vector", "discrete"): "datko-d",
}

_BARBASHIN_IDS = {
    ("vector-dual", "continuous"): "barbashin-v",
    ("operator-dual", "continuous"): "barbashin-op",
    ("operator-dual", "discrete"): "barbashin-d",
}


@dataclass(frozen=True)
class Skipped:
    """A probe whose integral has no value, and why: overflow, budget or horizon."""

    cause: str

    @classmethod
    def after(cls, exc: Exception) -> Skipped:
        return cls("budget" if isinstance(exc, BudgetExceeded) else "overflow")

    @property
    def band(self) -> str:
        return f"{self.cause}-limited probe"


def _with_halving(run, a, horizon):
    """run(idx, horizons) on the probes idx, halving beyond a_i the horizon of each that overflowed or ran out of budget.

    Only the failed probes run again (README, "Numerical conventions").  A
    tail left unsettled at a horizon the budget shortened stays
    Skipped("budget"); a probe with no horizon longer than 2 is Skipped
    with its last failure (or "horizon" when none was tried).
    """
    out = [Skipped("horizon")] * len(a)
    h = list(horizon)
    todo = [i for i in range(len(a)) if h[i] > a[i] + 2.0]
    while todo:
        again = []
        for i, r in zip(todo, run(np.array(todo), [h[i] for i in todo])):
            if isinstance(r, Exception):
                out[i] = Skipped.after(r)
                h[i] = a[i] + (h[i] - a[i]) / 2.0
                if h[i] > a[i] + 2.0:
                    again.append(i)
            elif r.converged or out[i].cause != "budget":
                out[i] = r
        todo = again
    return out


def _norm_class(w):
    """What a log norm reads of a probe vector: its |w_i|, or None for the induced norm.

    A scalar unit vector leaves its single log term unchanged, which is
    exactly the induced norm, so it shares the operator form's class.
    """
    if w is None:
        return None
    cls = tuple(abs(c) for c in w)
    return None if cls == (1.0,) else cls


def gauged(gauge: Gauge, t: float) -> float | None:
    """gauge(t), or None when it leaves float range (a large power)."""
    try:
        return gauge(t)
    except OverflowError:
        return None


def _memoized(memo: dict, n: int, key, compute, expect_pass: bool = False):
    """(position, memo[key(position)]) for positions 0..n-1 in order, computing the missing ones in batches.

    ``compute(positions)`` returns the results for those keys.  A batch
    holds every distinct missing key when the caller ``expect_pass``es
    (reads every position), so a wrong guess costs what a pass would; else
    the next 1, 2, 4, ..., so a caller that stops at its k-th probe has
    computed at most 2k - 1.  ``key`` may read the memo: a key that changed
    when its position is reached is computed in the next batch.
    """
    sizes = itertools.repeat(n) if expect_pass else (2 ** i for i in itertools.count())
    for i in range(n):
        k = key(i)
        if k not in memo:
            size, batch = next(sizes), {}
            for j in range(i, n):
                kj = key(j)
                if kj not in memo and kj not in batch:
                    batch[kj] = j
                    if len(batch) == size:
                        break
            memo.update(zip(batch, compute(list(batch.values()))))
        yield i, memo[k]


def _logs(vectors):
    """log|w| of each probe vector as the columns of a (d, n) array; None for the induced norm."""
    if vectors[0] is None:
        return None
    return np.stack([log_abs(w) for w in vectors], axis=1)


def forward_tails(system: System, form: str, time: str, gauge: Gauge, config,
                  alpha: float = 0.0, first: int = 1, expect=None):
    """Forward tails of R(e^{alpha (s - t0)} ||Phi(s,t0,x)v||), one per tail probe.

    Yields (t0, x, v, result) in probe order, result being Skipped when no
    horizon fits the integrand's range.  The operator form (induced norm)
    keeps one probe per (t0, x).  Discrete sums run over n >= floor(t0) +
    first.  Each distinct tail is computed once per system: ``expect`` None
    computes the missing ones in batches of 1, 2, 4, ...; a tuple of weights
    computes them in one batch, together with the same probes' tails at each
    of those weights, for the runs at them to read.  Time-invariant and
    state-independent systems share tails between t0s and xs (README).
    """
    cap = min(config.tmax, system.horizons.tail_cap)
    vectors = system.vector_samples if form == "vector" else system.vector_samples[:1]
    classes = [_norm_class(v) if form == "vector" else None for v in vectors]
    # tail_probes runs over the vectors innermost: probe p has the class of vector p mod len(vectors)
    probes = [(t0, x, v) for t0, x, v in tail_probes(system) if form == "vector" or v is vectors[0]]
    weights = (alpha, *(expect or ()))
    # one per weight, keyed by everything the integrand and the quadrature read
    memos = [system.memo.setdefault(("tail", time, gauge, w, first if time == "discrete" else None,
                                     cap, config.tol, config.eval_cap), {}) for w in weights]

    def horizon(t0):  # where the tail from t0 stops at the latest
        return cap if time == "continuous" else math.floor(t0) + first + int(cap)

    def key(p, memo):
        t0, x, _ = probes[p]
        x, cls = None if system.state_independent else x, classes[p % len(classes)]
        start, r = memo.get((None, x, cls), (t0, None))
        shared = system.time_invariant and (r is None or start == t0 or isinstance(r, IntegralResult) and (
            r.converged and r.truncation_horizon - start <= horizon(t0) - t0))
        return None if shared else t0, x, cls

    def compute(positions):
        jobs = [(p, 0, None) for p in positions]  # (probe, weight, key at a further weight)
        for m in range(1, len(memos)):  # a tail shared between t0s runs from the first t0, as its own run does
            batch = {}
            for p in positions:
                k = key(p, memos[m])
                if k not in memos[m] and (k[0] is not None or probes[p][0] == probes[0][0]):
                    batch.setdefault(k, p)
            jobs += [(p, m, k) for k, p in batch.items()]
        t0s = np.array([probes[p][0] for p, _, _ in jobs])
        w = np.array([weights[m] for _, m, _ in jobs])
        states = States.of([probes[p][1] for p, _, _ in jobs])
        lw = _logs([probes[p][2] if form == "vector" else None for p, _, _ in jobs])

        def integrand(sigma, k):
            t0 = t0s[k]
            ln = log_norms(system, sigma, t0, States(states.value[k], states.real[k]),
                           None if lw is None else lw[:, k])
            return gauge.array(apply(math.exp, w[k] * (sigma - t0) + ln))

        def on(idx):
            return lambda x, k: integrand(x, idx[k])

        if time == "continuous":
            results = _with_halving(
                lambda idx, h: tails(on(idx), t0s[idx], h, config.tol, config.eval_cap, window=AHEAD),
                t0s.tolist(), [cap] * len(jobs))
        else:
            n0 = [math.floor(t0) + first for t0 in t0s.tolist()]
            results = _with_halving(
                lambda idx, h: series(on(idx), [n0[i] for i in idx], config.tol,
                                      [int(hi - n0[i]) for i, hi in zip(idx, h)], config.eval_cap, window=AHEAD),
                n0, [horizon(t0) for t0 in t0s.tolist()])
        # each result is stored with the t0 it ran from
        for (p, m, k), r in zip(jobs, results):
            if m:
                memos[m][k] = probes[p][0], r
        return [(probes[p][0], r) for p, r in zip(positions, results)]

    for i, (_, result) in _memoized(memos[0], len(probes), lambda p: key(p, memos[0]), compute, expect is not None):
        yield (*probes[i], result)


def backward_integrals(system: System, time: str, gauge: Gauge, config,
                       alpha: float = 0.0, operator: bool = False, expect=None):
    """Integrals of R(e^{alpha (t - s)} ||Phi(t,s,phi(s,t0,x))* v*||) over s in [t0, t].

    Yields (t, t0, x, vstar, value) in probe order, value being Skipped when
    the integral overflowed or ran out of budget.  Discrete time sums over
    s = t0, ..., t; a term that overflowed skips its sum, and a sum of more
    terms than the evaluation cap is Skipped("budget").  With ``operator``
    the induced norm replaces the dual vector norm (vstar None).  Batches
    and sharing as in ``forward_tails``: on a time-invariant system one
    integral serves every (t, t0) with the same t - t0.
    """
    pairs = backward_pairs(system) if time == "continuous" else discrete_pairs(system)
    duals = [(None, None)] if operator else [(w, _norm_class(w)) for w in system.dual_samples]
    probes = [(t, t0, x, w) for t, t0 in pairs for x in system.state_samples for w, _ in duals]
    keys = [((t - t0,) if system.time_invariant else (t, t0)) + (None if system.state_independent else x, c)
            for t, t0 in pairs for x in system.state_samples for _, c in duals]
    weights = (alpha, *(expect or ()))
    memos = [system.memo.setdefault(("adjoint", time, gauge, w, config.tol, config.eval_cap), {}) for w in weights]

    def compute(positions):
        # a batch's keys are new, so each comes from its first probe, as in a run at any weight
        jobs = [(p, m) for m, memo in enumerate(memos) for p in positions if not m or keys[p] not in memo]
        ends = np.array([float(probes[p][0]) for p, _ in jobs])
        starts = np.array([float(probes[p][1]) for p, _ in jobs])
        w = np.array([weights[m] for _, m in jobs])
        states = States.of([probes[p][2] for p, _ in jobs])
        lw = _logs([probes[p][3] for p, _ in jobs])

        def integrand(s, k):
            end = ends[k]
            y = evolve(system, s, starts[k], States(states.value[k], states.real[k]))
            ln = log_norms(system, end, s, y, None if lw is None else lw[:, k], dual=True)
            return gauge.array(apply(math.exp, w[k] * (end - s) + ln))

        if time == "continuous":
            results = simpson(integrand, starts, ends, [config.tol] * len(jobs), [config.eval_cap] * len(jobs))
            values = [r.value if not isinstance(r, Exception) else Skipped.after(r) for r in results]
        else:
            spans = [range(probes[p][1], probes[p][0] + 1) for p, _ in jobs]
            spans = [r if len(r) <= config.eval_cap else range(0) for r in spans]
            k = np.repeat(np.arange(len(spans)), [len(r) for r in spans])
            with np.errstate(all="ignore"):
                y, over = evaluate(integrand, np.array([float(n) for r in spans for n in r]), k)
            # a term that raised OverflowError skips its sum; any other term is added, in order
            values = [Skipped("budget") if not r else Skipped("overflow") if over[j - len(r):j].any() else
                      functools.reduce(float.__add__, y[j - len(r):j].tolist(), 0.0)
                      for r, j in zip(spans, itertools.accumulate(map(len, spans)))]
        for (p, m), v in zip(jobs, values):
            if m:
                memos[m][keys[p]] = v
        return values[:len(positions)]

    for i, value in _memoized(memos[0], len(keys), keys.__getitem__, compute, expect is not None):
        t, t0, x, w = probes[i]
        yield t, t0, x, w, value


def settled_within(system: System, config, tails):
    """forward_tails' stream, an unsettled tail Skipped("horizon") when ``tmax`` cut the system's tail cap short."""
    short = config.tmax < system.horizons.tail_cap
    for *probe, r in tails:
        yield (*probe, Skipped("horizon") if short and isinstance(r, IntegralResult) and not r.converged else r)


def divergence_witness(probe) -> dict | None:
    """Witness of a forward tail probe (t0, x, v, result) that did not settle before its horizon, else None."""
    t0, x, v, result = probe
    return None if result.converged else witness_dict(
        t0=t0, x=x, v=v, partial=result.value, truncation_horizon=result.truncation_horizon, converged=False)


def adjoint_witness(t, t0, x, vstar, value) -> dict:
    """Witness of a backward integral above its bound."""
    w = witness_dict(t=t, t0=t0, x=x, value=value)
    if vstar is not None:
        w["vstar"] = list(vstar)
    return w


@dataclass
class Scan:
    """The probes of a stream with a value so far: per-t0 suprema, their supremum and its probe, the first Skipped."""

    per_t0: dict
    sup: float = 0.0
    worst: tuple | None = None  # (probe, quantity) of sup
    skipped: Skipped | None = None


def scan(cid, probes, echo, *, t0_at, quantity, early_fail, evidence, end) -> CriterionReport:
    """The report of an integral criterion, from its probe stream walked in probe order.

    Each probe tuple ends with its result, and holds its t0 at ``t0_at``.
    The first probe with a witness ``early_fail(probe)`` ends the scan as a
    fail, with that witness and ``evidence(scan, (probe, quantity(probe)))``.
    A budget-limited probe ends it as inconclusive, with ``evidence(scan)``,
    its band and no witness: the run could not afford the criterion, so no
    end-of-scan rule runs.  Other Skipped probes are passed over.  At the
    end, ``end(scan, evidence(scan))`` gives the verdict, evidence and witness.
    """
    s = Scan({})
    for probe in probes:
        result = probe[-1]
        if isinstance(result, Skipped):
            if result.cause == "budget":
                return CriterionReport(cid, INCONCLUSIVE, dict(evidence(s), band=result.band), config_echo=echo)
            s.skipped = s.skipped or result
            continue
        q = quantity(probe)
        t0 = float(probe[t0_at])
        s.per_t0[t0] = max(s.per_t0.get(t0, 0.0), q)
        witness = early_fail(probe)
        if witness is not None:
            return CriterionReport(cid, FAIL, evidence(s, (probe, q)), witness=witness, config_echo=echo)
        if s.worst is None or q > s.sup:
            s.sup, s.worst = q, (probe, q)
    verdict, ev, w = end(s, evidence(s))
    return CriterionReport(cid, verdict, ev, witness=w, config_echo=echo)


def test_datko(system: System, form: str, time: str, gauge: Gauge, config, alpha: float = 0.0,
               expect=None) -> CriterionReport:
    """Forward tail test: the tails of R(e^{alpha (s - t0)} ||Phi(s,t0,x)v||) from each t0 stay bounded.

    vector: each tail divided by R(||v||); operator: the induced norm.  A
    tail unsettled at the system's tail cap is a divergence witness (see
    ``settled_within``).  alpha = 0 gives datko-v, -op and -d, with bands
    at N_cap and 10*N_cap; alpha > 0 their -nu twins, which fail above the
    nonuniform cap and record the per-t0 suprema.  datko-op-nu compares
    each tail against R(t0) literally, which is dimensionally odd: flagged
    in its report, and not counted by the panel.  The README ("Numerical
    conventions") lists every constant that differs by setting.
    """
    if alpha < 0.0:
        raise ValueError("alpha must not be negative")
    nu = alpha > 0.0
    n_cap = config.ncap_nonuniform if nu else config.ncap
    cap = min(config.tmax, system.horizons.tail_cap)
    literal = nu and form == "operator"
    # per sample vector, by id: the probes carry the system's own vectors
    denom = {id(v): gauge(vec_norm(v, system.norm_choice)) if form == "vector" else 1.0 if nu else gauge(1.0)
             for v in system.vector_samples}
    if 0.0 in denom.values():
        raise DegenerateProbe("gauge vanished on a unit probe vector")
    echo = dict({"alpha": alpha} if nu else {"tol": config.tol}, gauge=gauge.describe(), t_max=cap, n_cap=n_cap)
    if literal:
        echo["flag"] = "literal-threshold R(t0)"

    def evidence(s, stop=None):
        ev = {"n_cap": n_cap, "per_t0": sorted(s.per_t0.items()), "divergence": stop is not None}
        return ev if nu else dict(ev, sup_ratio=stop[1] if stop else s.sup)

    def end(s, ev):
        if literal:  # a threshold beyond float range leaves its t0 overflow-limited
            threshold = {t0: gauged(gauge, t0) for t0, _ in ev["per_t0"]}
            bad = [(t0, r) for t0, r in ev["per_t0"]
                   if threshold[t0] is not None and (r >= threshold[t0] or threshold[t0] == 0.0)]
            ev["literal_violations"] = bad
            if bad:
                return FAIL, ev, witness_dict(t0=bad[0][0], ratio=bad[0][1], threshold=threshold[bad[0][0]])
            if None in threshold.values():
                s.skipped = s.skipped or Skipped("overflow")
        elif s.worst is not None and (s.sup > n_cap if nu else s.sup >= 10.0 * n_cap):
            (t0, x, v, result), ratio = s.worst
            w = witness_dict(t0=t0, x=x, v=v, ratio=ratio)
            return FAIL, ev, w if nu else dict(w, partial=result.value)
        above = not nu and s.sup > n_cap  # the band between N_cap and 10*N_cap is the uniform setting's
        if s.skipped is not None or above:
            return INCONCLUSIVE, dict(ev, band="ratio above cap" if above else s.skipped.band), None
        return PASS, ev, None

    tails = forward_tails(system, form, time, gauge, config, alpha, first=0 if nu else 1, expect=expect)
    return scan(_DATKO_IDS[(form, time)] + ("-nu" if nu else ""), settled_within(system, config, tails), echo,
                t0_at=0, quantity=lambda p: p[3].value / denom[id(p[2])], early_fail=divergence_witness,
                evidence=evidence, end=end)


def test_barbashin(
    system: System, form: str, time: str, gauge: Gauge, config, hypothesis: str = "none", expect=None
) -> CriterionReport:
    """Backward adjoint test: gauged dual-trajectory integrals stay bounded.

    vector-dual: integral over [t0, t] of R(||Phi(t,s,phi(s,t0,x))* v*||)
    against R(N_cap ||v*||), a probe whose bound leaves float range being
    overflow-limited.  operator-dual: the same integral against the plain
    constant cap; its discrete sums use the induced norm.  The report
    records which hypothesis (uniform stability or growth) was established
    before running, since the two variants of this test differ only there.
    """
    n_cap = config.ncap
    bounds = {id(w): gauged(gauge, n_cap * dual_norm(w, system.norm_choice)) for w in system.dual_samples}

    def bound(probe):
        return bounds[id(probe[3])] if form == "vector-dual" else n_cap

    integrals = (p if isinstance(p[4], Skipped) or bound(p) is not None else (*p[:4], Skipped("overflow"))
                 for p in backward_integrals(system, time, gauge, config, operator=time == "discrete", expect=expect))

    def evidence(s, stop=None):
        if (stop or s.worst) is None:
            return {"reason": "no finite probes"}
        probe, val = stop or s.worst
        ev = {"sup_integral": val, "bound": bound(probe), "overflow_skipped": s.skipped is not None}
        return dict(ev, early_exit=True) if stop else ev

    return scan(_BARBASHIN_IDS[(form, time)], integrals,
                {"gauge": gauge.describe(), "n_cap": n_cap, "hypothesis": hypothesis, "tol": config.tol},
                t0_at=1, quantity=lambda p: p[4], early_fail=lambda p: adjoint_witness(*p) if p[4] > bound(p) else None,
                evidence=evidence, end=lambda s, ev: (PASS, ev, None) if s.worst else (
                    INCONCLUSIVE, dict(ev, band=s.skipped.band) if s.skipped else ev, None))


def test_discrete_decay(
    system: System,
    growth_env: GrowthEnvelope | None,
    int_data: RatioData,
    n_cap: float = 1e3,
    echo: dict | None = None,
) -> CriterionReport:
    """Integer-time exponential decay fit (hypothesis: uniform growth)."""
    if growth_env is None or growth_env.dubious:
        raise MissingGrowthEnvelope("discrete decay test requires a verified growth envelope")
    fit = fit_exponential_decay(system, int_data, n_cap)
    max_lag = np.max(int_data.lag, initial=0.0).item()
    thin = max_lag < 5.0
    evidence = {"thin_grid": thin, "max_lag": max_lag}
    if fit is None:
        evidence["reason"] = "no ladder rate admits a constant under the cap"
        return CriterionReport("decay-d", INCONCLUSIVE, evidence, config_echo=echo or {})
    evidence.update({"N": fit.N, "nu": fit.nu})
    return CriterionReport("decay-d", PASS, evidence, config_echo=echo or {})


# ---------------------------------------------------------------------------
# the panel

@dataclass
class UniformPanel:
    verdict: str
    reports: list
    growth: GrowthEnvelope
    fit: DecayFit | None
    discrepancies: list

    def report(self, cid: str) -> CriterionReport | None:
        return next((r for r in self.reports if r.criterion_id == cid), None)


# criteria whose fail witness rules out UES; a UES tag requires each to pass
UES_CRITERIA = tuple(cid for cid in UNIFORM_CRITERIA if cid != "unif-stab")


def run_rows(rows, selected, echo: dict, reports: list) -> list:
    """Append to ``reports`` the report of each row (criterion id, thunk) that ``selected`` names, in row order.

    ``selected`` None names every row.  A thunk may read the reports made
    before it.  A criterion whose hypothesis, a verified growth envelope,
    is missing reports inconclusive with the reason.
    """
    for cid, report in rows:
        if selected is None or cid in selected:
            try:
                reports.append(report())
            except MissingGrowthEnvelope as exc:
                reports.append(CriterionReport(cid, INCONCLUSIVE, {"reason": str(exc)}, config_echo=echo))
    return reports


def _fit_report(fit: DecayFit | None, data: RatioData, n_cap: float, echo: dict) -> CriterionReport:
    if fit is not None:
        return CriterionReport("fit-exp", PASS, dict(fit.as_dict(), n_cap=n_cap), config_echo=echo)
    worst = data.log_ratio[first_max(data.log_ratio)].item()
    return CriterionReport("fit-exp", INCONCLUSIVE, {"reason": "no ladder rate admits a constant under the cap",
                           "max_ratio": math.exp(min(worst, 700.0)), "n_cap": n_cap}, config_echo=echo)


def shift_weight(fit: DecayFit | None) -> float:
    """The nonuniform criteria's weight alpha: half the uniform decay rate, else 1/2."""
    return fit.nu / 2.0 if fit is not None else 0.5


def run_uniform_panel(system: System, config, data: RatioData | None = None, selected=None,
                      nfit=None) -> UniformPanel:
    """Run the uniform criteria in fixed order and aggregate a verdict.

    Fail witnesses are decisive against uniform exponential stability;
    passes are supporting evidence.  A successful decay fit coexisting with
    a fail witness is a panel inconsistency and yields ``inconclusive``
    rather than being silently resolved.  ``nfit`` is the nonuniform
    panel's decay fit, when it passed.
    """
    from .gauges import make_gauge
    from .growth import estimate_growth

    if data is None:
        data = ratio_data(system, s_step=config.grid_step)
    # the integer and growth grids are read from the panel grid when it covers them
    int_data = ratio_data(system, integer_only=True, within=data)
    gauge = make_gauge(config.gauge)
    env = estimate_growth(system, "uniform", grid_h=config.grid_h,
                          data=ratio_data(system, lag_max=config.grid_h, within=data))
    echo = {"gauge": gauge.describe(), "n_cap": config.ncap, "grid_h": config.grid_h}

    reports = []
    fit = fit_exponential_decay(system, data, config.ncap)

    def expect(partner, time):  # None when no decay fit passed, else the weights batched alongside
        if fit is None and nfit is None:
            return None
        return (shift_weight(fit),) if nfit is not None and time == "continuous" and (
            selected is None or partner in selected) else ()

    def barbashin(form, time):  # records the hypothesis established before it ran
        stab = next((r for r in reports if r.criterion_id == "unif-stab"), None)
        hypothesis = ("uniform-stability" if stab is not None and stab.verdict == PASS
                      else "uniform-growth" if not env.dubious else "none")
        return test_barbashin(system, form, time, gauge, config, hypothesis, expect=expect("barbashin-nu", time))

    run_rows([
        ("fit-exp", lambda: _fit_report(fit, data, config.ncap, echo)),
        ("unif-stab", lambda: test_uniform_stability(system, data, config.ncap, echo)),
        ("minorant", lambda: test_divergent_minorant(system, data, echo=echo)),
        ("half-decay", lambda: test_half_decay(system, env, "continuous", config.delta_max, echo)),
        ("half-decay-d", lambda: test_half_decay(system, env, "discrete", config.delta_max, echo)),
        *((cid, functools.partial(test_datko, system, form, time, gauge, config, expect=expect(cid + "-nu", time)))
          for (form, time), cid in _DATKO_IDS.items()),
        *((cid, functools.partial(barbashin, form, time)) for (form, time), cid in _BARBASHIN_IDS.items()),
        ("decay-d", lambda: test_discrete_decay(system, env, int_data, config.ncap, echo)),
    ], selected, echo, reports)

    by_id = {r.criterion_id: r for r in reports}
    discrepancies = []
    if selected is not None:
        return UniformPanel("inconclusive", reports, env, fit, discrepancies)

    fails = [cid for cid in UES_CRITERIA if cid in by_id and by_id[cid].verdict == FAIL]
    fit_ok = by_id["fit-exp"].verdict == PASS
    stab_ok = by_id["unif-stab"].verdict == PASS

    if fit_ok and not fails:
        verdict = UES
    elif fit_ok:
        verdict = INCONCLUSIVE_VERDICT
        discrepancies.append("decay fit succeeded but criteria failed with witnesses: " + ", ".join(fails))
    elif fails:
        verdict = US_NOT_UES if stab_ok else UNSTABLE
    elif stab_ok:
        verdict = INCONCLUSIVE_VERDICT
        discrepancies.append("no criterion failed but no decay fit was found")
    else:
        verdict = UNSTABLE
    return UniformPanel(verdict, reports, env, fit, discrepancies)
