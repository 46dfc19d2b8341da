"""Uniform-setting stability criteria and their panel.

Every "for all" quantifier is discharged over finite probe grids with the
cap N_cap (default 1e3) and an explicit inconclusive band, so pass/fail is
reproducible and every fail carries a falsifiable witness.  Forward tail
integrals that hit the horizon cap without settling are treated as
divergence witnesses.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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
    RatioData,
    backward_pairs,
    discrete_pairs,
    ratio_data,
    s_grid,
    tail_probes,
)
from .quadrature import evaluate, series, simpson, tails
from .reports import (
    FAIL,
    INCONCLUSIVE,
    INCONCLUSIVE_VERDICT,
    PASS,
    UES,
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
        return {
            "N": self.N,
            "nu": self.nu,
            "residual": self.residual,
            "probes_used": self.probes_used,
            "skipped": self.skipped,
        }


def fit_exponential_decay(
    system: System,
    data: RatioData | None = None,
    n_cap: float = 1e3,
    ladder=NU_LADDER,
) -> DecayFit | None:
    """Largest ladder rate nu admitting ||Phi(t,t0,x)v|| <= N e^{-nu(t-s)} ||Phi(s,t0,x)v||
    with N <= n_cap on the probes.  Returns None when even the smallest rate
    would need a constant above the cap.
    """
    if data is None:
        data = ratio_data(system)
    if not data.probes:
        raise DegenerateProbe("no usable decay probes")
    log_cap = math.log(n_cap)
    for nu in sorted(ladder, reverse=True):
        log_n = max(p.log_ratio + nu * p.lag for p in data.probes)
        if log_n <= log_cap:
            n = max(1.0, math.exp(log_n))
            # residual of the certified inequality; zero by construction up
            # to rounding, recomputed honestly from the probe logs
            resid = max(
                0.0,
                max(math.exp(min(p.log_ratio + nu * p.lag, 700.0)) - n for p in data.probes),
            )
            return DecayFit(n, nu, resid, len(data.probes), data.skipped)
    return None


def test_uniform_stability(
    system: System, data: RatioData | None = None, n_cap: float = 1e3, echo: dict | None = None
) -> CriterionReport:
    """Bounded trajectory-norm ratios: ||Phi(t,t0,x)v|| <= N ||Phi(s,t0,x)v||."""
    if data is None:
        data = ratio_data(system)
    worst = max(data.probes, key=lambda p: p.log_ratio)
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
    data: RatioData | None = None,
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
    if data is None:
        data = ratio_data(system)
    lags = data.lags()
    by_lag: dict = {}
    for p in data.probes:
        cur = by_lag.get(p.lag)
        if cur is None or p.log_ratio > cur.log_ratio:
            by_lag[p.lag] = p  # max ratio = min inverse ratio
    if len(lags) < 2 or max(lags) < min_lag:
        return CriterionReport(
            "minorant",
            INCONCLUSIVE,
            {"reason": "window grid too short", "max_lag": max(lags) if lags else 0.0},
            config_echo=echo or {},
        )
    log_fhat = [-by_lag[h].log_ratio for h in lags]
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
    worst = by_lag[lags[-1]]
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
    if mode == "continuous":
        deltas = [round(1.1 + 0.1 * k, 10) for k in range(int(round((delta_max - 1.1) / 0.1)) + 1)]
    else:
        deltas = [float(k) for k in range(1, int(delta_max) + 1)]
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
        val, _ = sup_at(delta)
        if val <= log_half:
            return CriterionReport(
                cid,
                PASS,
                {"delta": delta, "sup_norm": math.exp(val), "threshold": HALF_DECAY_THRESHOLD},
                config_echo=echo or {},
            )
    val, worst = sup_at(deltas[-1])
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

    Either means the horizon was too long for the integrand's range, so the
    divergence signal is recovered at the largest finite horizon; only the
    probes that failed run again.  A probe is Skipped when no horizon longer
    than 2 fits, naming its last failure (or the horizon itself when none
    was tried).
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
            else:
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


def _memoized(memo: dict, keys: list, compute):
    """(position, memo[key]) for each key in order, computing the missing ones in batches.

    ``compute(positions)`` returns the results for those keys.  A batch
    holds the next 1, 1, 2, 4, ... distinct missing keys, so a caller that
    stops at its k-th probe has computed fewer than 2k.
    """
    sizes = itertools.chain([1], (2 ** i for i in itertools.count()))
    for i, key in enumerate(keys):
        if key not in memo:
            size, batch = next(sizes), {}
            for j in range(i, len(keys)):
                if keys[j] not in memo and keys[j] not in batch:
                    batch[keys[j]] = j
                    if len(batch) == size:
                        break
            memo.update(zip(batch, compute(list(batch.values()))))
        yield i, memo[key]


def _logs(vectors):
    """log|w| of each probe vector as the columns of a (d, n) array; None for the induced norm."""
    if vectors[0] is None:
        return None
    return np.stack([log_abs(w) for w in vectors], axis=1)


def forward_tails(system: System, form: str, time: str, gauge: Gauge, config,
                  alpha: float = 0.0, first: int = 1):
    """Forward tails of R(e^{alpha (s - t0)} ||Phi(s,t0,x)v||), one per tail probe.

    Yields (t0, x, v, result) in probe order, where result is the
    IntegralResult, or Skipped when no horizon fits the integrand's range.
    The operator form uses the induced norm, which does not depend on v, so
    it keeps one probe per (t0, x).  Continuous tails run from t0 to the
    horizon cap; discrete sums run over n >= floor(t0) + first, with as many
    terms as the cap.  Each distinct tail is computed once per system, and
    the missing ones are computed together (see ``_memoized``).
    """
    cap = min(config.tmax, system.horizons.tail_cap)
    lead = system.vector_samples[0]
    probes = [(t0, x, v) for t0, x, v in tail_probes(system) if form == "vector" or v is lead]
    keys = [(t0, x, _norm_class(v if form == "vector" else None)) for t0, x, v in probes]
    # keyed by everything the integrand and the quadrature read
    memo = system.memo.setdefault(
        ("tail", time, gauge, alpha, first if time == "discrete" else None,
         cap, config.tol, config.eval_cap), {})

    def compute(positions):
        t0s = np.array([probes[p][0] for p in positions])
        states = States.of([probes[p][1] for p in positions])
        lw = _logs([probes[p][2] if form == "vector" else None for p in positions])

        def integrand(sigma, k):
            t0 = t0s[k]
            ln = log_norms(system, sigma, t0, States(states.value[k], states.real[k]),
                           None if lw is None else lw[:, k])
            return gauge.array(apply(math.exp, alpha * (sigma - t0) + ln))

        def on(idx):
            return lambda x, k: integrand(x, idx[k])

        if time == "continuous":
            return _with_halving(
                lambda idx, h: tails(on(idx), t0s[idx], h, config.tol, config.eval_cap, window=AHEAD),
                t0s.tolist(), [cap] * len(positions),
            )
        n0 = [math.floor(t0) + first for t0 in t0s.tolist()]
        return _with_halving(
            lambda idx, h: series(on(idx), [n0[i] for i in idx], config.tol,
                                  [int(hi - n0[i]) for i, hi in zip(idx, h)], window=AHEAD),
            n0, [n + int(cap) for n in n0],
        )

    for i, result in _memoized(memo, keys, compute):
        yield (*probes[i], result)


def backward_integrals(system: System, time: str, gauge: Gauge, config,
                       alpha: float = 0.0, operator: bool = False):
    """Integrals of R(e^{alpha (t - s)} ||Phi(t,s,phi(s,t0,x))* v*||) over s in [t0, t].

    Yields (t, t0, x, vstar, value) in probe order, where value is Skipped
    when the integral overflowed or ran out of budget.  Discrete time sums
    over the integers s = t0, ..., t instead; a term that overflowed skips
    its sum.  With ``operator`` the induced norm of
    Phi(t,s,phi(s,t0,x)) replaces the dual vector norm, with one probe per
    (t, t0, x) and vstar None.  Each distinct integral is computed once per
    system, and the missing ones are computed together (see ``_memoized``).
    """
    pairs = backward_pairs(system) if time == "continuous" else discrete_pairs(system)
    probes = [(t, t0, x, w) for t, t0 in pairs for x in system.state_samples
              for w in ((None,) if operator else system.dual_samples)]
    keys = [(t, t0, x, _norm_class(w)) for t, t0, x, w in probes]
    memo = system.memo.setdefault(
        ("adjoint", time, gauge, alpha, config.tol, config.eval_cap), {})

    def compute(positions):
        ends = np.array([float(probes[p][0]) for p in positions])
        starts = np.array([float(probes[p][1]) for p in positions])
        states = States.of([probes[p][2] for p in positions])
        lw = _logs([probes[p][3] for p in positions])

        def integrand(s, k):
            end = ends[k]
            y = evolve(system, s, starts[k], States(states.value[k], states.real[k]))
            ln = log_norms(system, end, s, y, None if lw is None else lw[:, k], dual=True)
            return gauge.array(apply(math.exp, alpha * (end - s) + ln))

        if time == "continuous":
            results = simpson(integrand, starts, ends, [config.tol] * len(positions),
                              [config.eval_cap] * len(positions))
            return [r.value if not isinstance(r, Exception) else Skipped.after(r) for r in results]
        spans = [range(probes[p][1], probes[p][0] + 1) for p in positions]
        k = np.repeat(np.arange(len(spans)), [len(r) for r in spans])
        with np.errstate(all="ignore"):
            y, over = evaluate(integrand, np.array([float(n) for r in spans for n in r]), k)
        # a term that raised OverflowError skips its sum; any other term is added, in order
        return [Skipped("overflow") if over[j - len(r):j].any() else
                functools.reduce(float.__add__, y[j - len(r):j].tolist(), 0.0)
                for r, j in zip(spans, itertools.accumulate(map(len, spans)))]

    for i, value in _memoized(memo, keys, compute):
        t, t0, x, w = probes[i]
        yield t, t0, x, w, value


def divergence_witness(t0, x, v, result) -> dict:
    """Witness of a forward tail that did not settle before its horizon."""
    return witness_dict(
        t0=t0, x=x, v=v, partial=result.value,
        truncation_horizon=result.truncation_horizon, converged=False,
    )


def adjoint_witness(t, t0, x, vstar, value) -> dict:
    """Witness of a backward integral above its bound."""
    w = witness_dict(t=t, t0=t0, x=x, value=value)
    if vstar is not None:
        w["vstar"] = list(vstar)
    return w


def test_datko(system: System, form: str, time: str, gauge: Gauge, config) -> CriterionReport:
    """Forward tail test: gauged trajectory norms must have bounded tails.

    vector: integral (or series) of R(||Phi(s,t0,x)v||) from t0, compared to
    N_cap * R(||v||).  operator: same with the induced norm, compared to
    N_cap * R(1).  A tail that fails to settle before the horizon cap is a
    divergence witness; a settled tail lands in pass / inconclusive / fail
    bands at N_cap and 10*N_cap.
    """
    cid = _DATKO_IDS[(form, time)]
    n_cap = config.ncap
    cap = min(config.tmax, system.horizons.tail_cap)
    echo = {"gauge": gauge.describe(), "t_max": cap, "n_cap": n_cap, "tol": config.tol}

    sup_ratio = 0.0
    worst = None
    skipped = None
    per_t0: dict = {}
    for t0, x, v, result in forward_tails(system, form, time, gauge, config):
        denom = gauge(vec_norm(v, system.norm_choice) if form == "vector" else 1.0)
        if denom == 0.0:
            raise DegenerateProbe("gauge vanished on a unit probe vector")
        if isinstance(result, Skipped):
            skipped = skipped or result
            continue
        ratio = result.value / denom
        per_t0[t0] = max(per_t0.get(t0, 0.0), ratio)
        if not result.converged:
            evidence = {"sup_ratio": ratio, "n_cap": n_cap, "per_t0": sorted(per_t0.items()),
                        "divergence": True}
            return CriterionReport(
                cid, FAIL, evidence, witness=divergence_witness(t0, x, v, result), config_echo=echo
            )
        if ratio > sup_ratio:
            sup_ratio = ratio
            worst = (t0, x, v, result)

    evidence = {
        "sup_ratio": sup_ratio,
        "n_cap": n_cap,
        "per_t0": sorted(per_t0.items()),
        "divergence": False,
    }
    if worst is not None and sup_ratio >= 10.0 * n_cap:
        t0, x, v, result = worst
        return CriterionReport(
            cid,
            FAIL,
            evidence,
            witness=witness_dict(t0=t0, x=x, v=v, partial=result.value, ratio=sup_ratio),
            config_echo=echo,
        )
    if skipped is not None or sup_ratio > n_cap:
        evidence["band"] = "ratio above cap" if sup_ratio > n_cap else skipped.band
        return CriterionReport(cid, INCONCLUSIVE, evidence, config_echo=echo)
    return CriterionReport(cid, PASS, evidence, config_echo=echo)


def test_barbashin(
    system: System, form: str, time: str, gauge: Gauge, config, hypothesis: str = "none"
) -> CriterionReport:
    """Backward adjoint test: gauged dual-trajectory integrals stay bounded.

    vector-dual: integral over [t0, t] of R(||Phi(t,s,phi(s,t0,x))* v*||)
    against R(N_cap ||v*||).  operator-dual: the same integral against the
    plain constant cap; its discrete sums use the induced norm.  The report
    records which hypothesis (uniform stability or growth) was established
    before running, since the two variants of this test differ only there.
    """
    cid = _BARBASHIN_IDS[(form, time)]
    n_cap = config.ncap
    echo = {"gauge": gauge.describe(), "n_cap": n_cap, "hypothesis": hypothesis, "tol": config.tol}

    sup_val = 0.0
    sup_bound = None
    any_skipped = False
    for t, t0, x, vstar, val in backward_integrals(
        system, time, gauge, config, operator=time == "discrete"
    ):
        if isinstance(val, Skipped):
            any_skipped = True
            continue
        if form == "vector-dual":
            bound = gauge(n_cap * dual_norm(vstar, system.norm_choice))
        else:
            bound = n_cap
        if val > bound:
            evidence = {"sup_integral": val, "bound": bound, "overflow_skipped": any_skipped,
                        "early_exit": True}
            return CriterionReport(
                cid, FAIL, evidence, witness=adjoint_witness(t, t0, x, vstar, val), config_echo=echo
            )
        if sup_bound is None or val > sup_val:
            sup_val, sup_bound = val, bound

    if sup_bound is None:
        return CriterionReport(cid, INCONCLUSIVE, {"reason": "no finite probes"}, config_echo=echo)
    evidence = {"sup_integral": sup_val, "bound": sup_bound, "overflow_skipped": any_skipped}
    return CriterionReport(cid, PASS, evidence, config_echo=echo)


def test_discrete_decay(
    system: System,
    growth_env: GrowthEnvelope | None,
    int_data: RatioData | None = None,
    n_cap: float = 1e3,
    echo: dict | None = None,
) -> CriterionReport:
    """Integer-time exponential decay fit (hypothesis: uniform growth)."""
    if growth_env is None or growth_env.dubious:
        raise MissingGrowthEnvelope("discrete decay test requires a verified growth envelope")
    if int_data is None:
        int_data = ratio_data(system, integer_only=True)
    fit = fit_exponential_decay(system, int_data, n_cap)
    max_lag = max((p.lag for p in int_data.probes), default=0.0)
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
        for r in self.reports:
            if r.criterion_id == cid:
                return r
        return None


# criteria whose fail witness rules out UES; a UES tag requires each to pass
UES_CRITERIA = (
    "fit-exp", "minorant", "half-decay", "half-decay-d",
    "datko-v", "datko-op", "datko-d",
    "barbashin-v", "barbashin-op", "barbashin-d", "decay-d",
)


def _fit_report(fit: DecayFit | None, data: RatioData, n_cap: float, echo: dict) -> CriterionReport:
    if fit is not None:
        return CriterionReport("fit-exp", PASS, dict(fit.as_dict(), n_cap=n_cap), config_echo=echo)
    worst = max(data.probes, key=lambda p: p.log_ratio)
    return CriterionReport(
        "fit-exp",
        INCONCLUSIVE,
        {
            "reason": "no ladder rate admits a constant under the cap",
            "max_ratio": math.exp(min(worst.log_ratio, 700.0)),
            "n_cap": n_cap,
        },
        config_echo=echo,
    )


def run_uniform_panel(system: System, config, data: RatioData | None = None, selected=None) -> UniformPanel:
    """Run the uniform criteria in fixed order and aggregate a verdict.

    Fail witnesses are decisive against uniform exponential stability;
    passes are supporting evidence.  A successful decay fit coexisting with
    a fail witness is a panel inconsistency and yields ``inconclusive``
    rather than being silently resolved.
    """
    from .gauges import make_gauge
    from .growth import estimate_growth

    if data is None:
        data = ratio_data(system, s_step=config.grid_step)
    int_data = ratio_data(system, integer_only=True)
    gauge = make_gauge(config.gauge)
    env = estimate_growth(system, "uniform", grid_h=config.grid_h, data=None)
    echo = {"gauge": gauge.describe(), "n_cap": config.ncap, "grid_h": config.grid_h}

    def want(cid):
        return selected is None or cid in selected

    reports = []
    fit = fit_exponential_decay(system, data, config.ncap)
    if want("fit-exp"):
        reports.append(_fit_report(fit, data, config.ncap, echo))
    if want("unif-stab"):
        reports.append(test_uniform_stability(system, data, config.ncap, echo))
    if want("minorant"):
        reports.append(test_divergent_minorant(system, data, echo=echo))
    for cid, mode in (("half-decay", "continuous"), ("half-decay-d", "discrete")):
        if want(cid):
            try:
                reports.append(test_half_decay(system, env, mode, config.delta_max, echo))
            except MissingGrowthEnvelope as exc:
                reports.append(
                    CriterionReport(cid, INCONCLUSIVE, {"reason": str(exc)}, config_echo=echo)
                )
    for (form, time), cid in _DATKO_IDS.items():
        if want(cid):
            reports.append(test_datko(system, form, time, gauge, config))
    stab = next((r for r in reports if r.criterion_id == "unif-stab"), None)
    if stab is not None and stab.verdict == PASS:
        hypothesis = "uniform-stability"
    elif not env.dubious:
        hypothesis = "uniform-growth"
    else:
        hypothesis = "none"
    for (form, time), cid in _BARBASHIN_IDS.items():
        if want(cid):
            reports.append(test_barbashin(system, form, time, gauge, config, hypothesis))
    if want("decay-d"):
        try:
            reports.append(test_discrete_decay(system, env, int_data, config.ncap, echo))
        except MissingGrowthEnvelope as exc:
            reports.append(
                CriterionReport("decay-d", INCONCLUSIVE, {"reason": str(exc)}, config_echo=echo)
            )

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
        discrepancies.append(
            "decay fit succeeded but criteria failed with witnesses: " + ", ".join(fails)
        )
    elif fails:
        verdict = US_NOT_UES if stab_ok else UNSTABLE
    elif stab_ok:
        verdict = INCONCLUSIVE_VERDICT
        discrepancies.append("no criterion failed but no decay fit was found")
    else:
        verdict = UNSTABLE
    return UniformPanel(verdict, reports, env, fit, discrepancies)
