"""Nonuniform-setting criteria: s-dependent constants and shifted-weight tests.

The nonuniform cap (1e6) is deliberately larger than the uniform one, since
constants like e^{2 t0} legitimately reach large values at probed starting
times.  Recorded constant tables N(t0) are reported per starting time and
are NOT required to be bounded; requiring that would collapse the setting
to the uniform one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import System, vec_norm
from .errors import DegenerateProbe
from .gauges import Gauge
from .probes import Groups, RatioData, ratio_data
from .reports import (
    ES_NOT_UES,
    FAIL,
    INCONCLUSIVE,
    INCONCLUSIVE_VERDICT,
    PASS,
    STABLE_ONLY,
    UES,
    UNSTABLE,
    US_NOT_UES,
    CriterionReport,
    StabilityVerdict,
    witness_dict,
)
from .uniform import (
    _DATKO_IDS,
    NU_LADDER,
    Skipped,
    UniformPanel,
    adjoint_witness,
    backward_integrals,
    divergence_witness,
    forward_tails,
    gauged,
    run_uniform_panel,
    scan,
    settled_within,
    shift_weight,
)

N_CAP_NONUNIFORM = 1e6

MAJORANT_FACTOR = 1e-3
MAJORANT_MIN_LAG = 10.0


@dataclass(frozen=True)
class NonuniformDecayFit:
    nu: float
    N_of_s: dict
    residual: float
    probes_used: int


def fit_nonuniform_decay(
    system: System,
    data: RatioData,
    nu_ladder=NU_LADDER,
    cap: float = N_CAP_NONUNIFORM,
) -> NonuniformDecayFit | None:
    """Largest ladder rate for which every s-bin admits a finite constant.

    N(s) is the per-bin maximum of e^{nu (t-s)} ||Phi(t,t0,x)v|| / ||Phi(s,t0,x)v||;
    all bins must stay under the nonuniform cap.
    """
    if not len(data.probes):
        raise DegenerateProbe("no usable decay probes")
    bins = Groups(data.s)
    log_cap = math.log(cap)
    for nu in sorted(nu_ladder, reverse=True):
        a = data.log_ratio + nu * data.lag
        log_n = a[bins.argmax(a)]
        if not (log_n > log_cap).any():
            table = {s: max(1.0, math.exp(n)) for s, n in zip(bins.keys[0].tolist(), log_n.tolist())}
            return NonuniformDecayFit(nu, table, 0.0, len(data.probes))
    return None


def test_decaying_majorant(
    system: System,
    data: RatioData,
    factor: float = MAJORANT_FACTOR,
    min_lag: float = MAJORANT_MIN_LAG,
    echo: dict | None = None,
) -> CriterionReport:
    """Existence of a decaying majorant g with ratio <= M(s) g(t-s).

    Per s-bin ratio curves are normalized by their short-lag value and
    enveloped across bins; the test passes when the envelope decays by the
    required factor over the window.
    """
    lags = Groups(data.lag).keys[0].tolist()
    if len(lags) < 2 or max(lags) < min_lag:
        return CriterionReport("majorant", INCONCLUSIVE, {"reason": "window grid too short",
                               "max_lag": max(lags) if lags else 0.0}, config_echo=echo or {})
    # each s-bin's curve: the largest ratio per lag, normalized by its value at the bin's least lag
    cells = Groups(data.s, data.lag)
    best = cells.argmax(data.log_ratio)
    bins = Groups(cells.keys[0])  # each bin's cells in lag order
    with np.errstate(all="ignore"):  # inf - inf is nan, as with Python floats, and no warning
        val = data.log_ratio[best] - data.log_ratio[best[bins.starts]][bins.code]
    # g*(h): the largest normalized ratio at lag h, over the bins in the order they first occur
    by_bin = np.argsort(np.minimum.reduceat(cells.order[cells.starts], bins.starts)[bins.code], kind="stable")
    envelope = Groups(cells.keys[1][by_bin])
    win = by_bin[envelope.argmax(val[by_bin])]
    hs = envelope.keys[0].tolist()
    vals = val[win].tolist()
    # suffix maximum: the smallest non-increasing majorant of g*
    cleaned = list(vals)
    for i in range(len(cleaned) - 2, -1, -1):
        cleaned[i] = max(cleaned[i], cleaned[i + 1])
    drop = cleaned[-1] - cleaned[0]
    evidence = {
        "drop": math.exp(max(min(drop, 700.0), -700.0)),
        "required_factor": factor,
        "g_star": [[h, math.exp(max(min(cleaned[i], 700.0), -700.0))] for i, h in enumerate(hs)],
    }
    if drop <= math.log(factor):
        return CriterionReport("majorant", PASS, evidence, config_echo=echo or {})
    worst = data.probes[best[win[-1]]]
    return CriterionReport(
        "majorant",
        FAIL,
        evidence,
        witness=witness_dict(t=worst.t, s=worst.s, t0=worst.t0, x=worst.x, v=worst.v),
        config_echo=echo or {},
    )


def test_datko_nonuniform(
    system: System, form: str, time: str, gauge: Gauge, alpha: float, config, expect=None
) -> CriterionReport:
    """Shifted-weight forward tail test.

    Computes tails of R(e^{alpha (s - t0)} ||Phi(s,t0,x)v||) per starting
    time; the per-t0 suprema are recorded as a function of t0.  The
    operator form compares each tail against R(t0) literally, which is
    dimensionally odd; its report carries a flag and the panel records it
    without counting it toward the verdict.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    cap = min(config.tmax, system.horizons.tail_cap)
    n_cap = config.ncap_nonuniform
    echo = {"gauge": gauge.describe(), "alpha": alpha, "t_max": cap, "n_cap": n_cap}
    literal_threshold = form == "operator"
    if literal_threshold:
        echo["flag"] = "literal-threshold R(t0)"

    denom = {id(v): gauge(vec_norm(v, system.norm_choice)) if form == "vector" else 1.0  # by id, as in test_datko
             for v in system.vector_samples}

    def evidence(s, stop=None):
        return {"per_t0": sorted(s.per_t0.items()), "divergence": stop is not None, "n_cap": n_cap}

    def end(s, ev):
        if literal_threshold:  # a threshold beyond float range leaves its t0 overflow-limited
            threshold = {t0: gauged(gauge, t0) for t0, _ in ev["per_t0"]}
            bad = [(t0, r) for t0, r in ev["per_t0"]
                   if threshold[t0] is not None and (r >= threshold[t0] or threshold[t0] == 0.0)]
            ev["literal_violations"] = bad
            if bad:
                return FAIL, ev, witness_dict(t0=bad[0][0], ratio=bad[0][1], threshold=threshold[bad[0][0]])
            if None in threshold.values():
                s.skipped = s.skipped or Skipped("overflow")
        elif s.worst is not None and s.sup > n_cap:
            (t0, x, v, _), r = s.worst
            return FAIL, ev, witness_dict(t0=t0, x=x, v=v, ratio=r)
        if s.skipped is not None:
            return INCONCLUSIVE, dict(ev, band=s.skipped.band), None
        return PASS, ev, None

    tails = forward_tails(system, form, time, gauge, config, alpha, first=0, expect=expect)
    return scan(_DATKO_IDS[(form, time)] + "-nu", settled_within(system, config, tails), echo,
                t0_at=0, quantity=lambda p: p[3].value / denom[id(p[2])], early_fail=divergence_witness,
                evidence=evidence, end=end)


def test_barbashin_nonuniform(
    system: System, time: str, gauge: Gauge, alpha_or_gamma: float, config, expect=None
) -> CriterionReport:
    """Shifted-weight backward adjoint test with per-t0 constants."""
    if not alpha_or_gamma > 0.0:
        raise ValueError("the shift weight must be positive")
    n_cap = config.ncap_nonuniform

    def evidence(s, stop=None):
        ev = {"per_t0": sorted(s.per_t0.items()), "n_cap": n_cap}
        return dict(ev, early_exit=True) if stop else ev

    def end(s, ev):
        if s.skipped is not None:
            return INCONCLUSIVE, dict(ev, band=s.skipped.band), None
        if not any(s.per_t0.values()):
            return INCONCLUSIVE, {"reason": "no probes"}, None
        return PASS, ev, None

    return scan("barbashin-nu" if time == "continuous" else "barbashin-d-nu",
                backward_integrals(system, time, gauge, config, alpha_or_gamma, expect=expect),
                {"gauge": gauge.describe(), "alpha": alpha_or_gamma, "n_cap": n_cap},
                t0_at=1, quantity=lambda p: p[4], early_fail=lambda p: adjoint_witness(*p) if p[4] > n_cap else None,
                evidence=evidence, end=end)


# ---------------------------------------------------------------------------
# the combined panel

# criteria counted toward the nonuniform verdict (datko-op-nu is recorded
# only: its literal threshold is flagged in its report)
_COUNTED = ("fit-exp-nu", "majorant", "datko-v-nu", "datko-d-nu", "barbashin-nu", "barbashin-d-nu")


def _fit_nu_report(fit: NonuniformDecayFit | None, cap: float, echo: dict) -> CriterionReport:
    if fit is not None:
        ev = {"nu": fit.nu, "max_N_of_s": max(fit.N_of_s.values()),
              "N_of_s": [[s, n] for s, n in sorted(fit.N_of_s.items())], "n_cap": cap}
        return CriterionReport("fit-exp-nu", PASS, ev, config_echo=echo)
    return CriterionReport(
        "fit-exp-nu",
        INCONCLUSIVE,
        {"reason": "no ladder rate keeps every s-bin under the cap", "n_cap": cap},
        config_echo=echo,
    )


def run_nonuniform_panel(
    system: System, config, uniform: UniformPanel | None = None, selected=None
) -> StabilityVerdict:
    """Run both panels and combine them into one classification.

    The uniform verdict dominates when it is UES; otherwise a clean
    nonuniform panel yields ES-not-UES.  Inconsistencies (uniform UES with
    nonuniform fail witnesses) are reported, never silently resolved.
    """
    from .gauges import make_gauge

    data = ratio_data(system, s_step=config.grid_step)
    cap = config.ncap_nonuniform
    # fitted first: a passing fit lets the uniform panel compute this panel's integrals with its own
    nfit = fit_nonuniform_decay(system, data, NU_LADDER, cap)
    if uniform is None:
        uniform = run_uniform_panel(system, config, data=data, selected=selected, nfit=nfit)
    gauge = make_gauge(config.gauge)
    echo = {"gauge": gauge.describe(), "n_cap": cap}

    def want(cid):
        return selected is None or cid in selected

    alpha = shift_weight(uniform.fit)
    expect = () if nfit is not None else None

    reports = []
    if want("fit-exp-nu"):
        reports.append(_fit_nu_report(nfit, cap, echo))
    if want("majorant"):
        reports.append(test_decaying_majorant(system, data, echo=echo))
    for (form, time), cid in _DATKO_IDS.items():
        if want(cid + "-nu"):
            reports.append(test_datko_nonuniform(system, form, time, gauge, alpha, config, expect))
    for time, cid in (("continuous", "barbashin-nu"), ("discrete", "barbashin-d-nu")):
        if want(cid):
            reports.append(test_barbashin_nonuniform(system, time, gauge, alpha, config, expect))

    all_reports = list(uniform.reports) + reports
    discrepancies = list(uniform.discrepancies)

    if selected is not None:
        return StabilityVerdict(INCONCLUSIVE_VERDICT, all_reports, discrepancies,
                                uniform.growth.as_dict())

    by_id = {r.criterion_id: r for r in reports}
    counted_fails = [cid for cid in _COUNTED if cid in by_id and by_id[cid].verdict == FAIL]
    nfit_ok = by_id["fit-exp-nu"].verdict == PASS
    nonuniform_ok = nfit_ok and not counted_fails

    if uniform.verdict == UES:
        if counted_fails:
            label = INCONCLUSIVE_VERDICT
            discrepancies.append(
                "uniform panel certified UES but nonuniform criteria failed: "
                + ", ".join(counted_fails)
            )
        else:
            label = UES
    elif nonuniform_ok:
        label = ES_NOT_UES
    elif uniform.verdict == US_NOT_UES:
        label = US_NOT_UES
    elif uniform.verdict == UNSTABLE:
        # nonuniform stability without exponential decay: bounded s-bins
        label = STABLE_ONLY if _bins_bounded(data, cap) else UNSTABLE
    else:
        label = INCONCLUSIVE_VERDICT
    return StabilityVerdict(label, all_reports, discrepancies, uniform.growth.as_dict())


def _bins_bounded(data: RatioData, cap: float) -> bool:
    """Whether every s-bin's largest ratio, floored at 1 (a nan never counts), stays under the cap."""
    lr = data.log_ratio
    return bool(lr.size) and np.max(lr, where=~np.isnan(lr), initial=0.0).item() <= math.log(cap)
