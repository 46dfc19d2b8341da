"""Nonuniform-setting criteria (the majorant and shifted-weight Barbashin tests), and the panel
that runs the criteria of both settings and derives one label from a table.

The -nu decay fit and Datko criteria are ``uniform.fit_decay`` over s-bins and
``uniform.test_datko`` at a weight alpha > 0.  The nonuniform cap (1e6) is
deliberately larger than the uniform one, since constants like e^{2 t0}
legitimately reach large values at probed starting times.  Recorded constant
tables N(t0) are reported per starting time and are NOT required to be
bounded; requiring that would collapse the setting to the uniform one.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import System
from .errors import MissingGrowthEnvelope
from .gauges import Gauge, make_gauge
from .growth import estimate_growth
from .probes import Groups, RatioData, first_max, ratio_data
from .reports import (
    ES_NOT_UES,
    FAIL,
    INCONCLUSIVE,
    INCONCLUSIVE_VERDICT,
    NONUNIFORM_CRITERIA,
    PASS,
    STABLE_ONLY,
    UES,
    UNIFORM_CRITERIA,
    UNSTABLE,
    US_NOT_UES,
    CriterionReport,
    StabilityVerdict,
    witness_dict,
)
from .uniform import (
    _BARBASHIN_IDS,
    _DATKO_IDS,
    DecayFit,
    adjoint_witness,
    backward_integrals,
    fit_decay,
    scan,
    test_barbashin,
    test_datko,
    test_discrete_decay,
    test_divergent_minorant,
    test_half_decay,
    test_uniform_stability,
)

MAJORANT_FACTOR = 1e-3
MAJORANT_MIN_LAG = 10.0


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
# the panel

# criteria whose fail witness rules out UES; a UES tag requires each to pass
UES_CRITERIA = tuple(cid for cid in UNIFORM_CRITERIA if cid != "unif-stab")
# criteria counted toward the nonuniform verdict (datko-op-nu is recorded
# only: its literal threshold is flagged in its report)
_COUNTED = tuple(cid for cid in NONUNIFORM_CRITERIA if cid != "datko-op-nu")

# The label reads six facts of a panel, in this order: fit-exp passed; a
# UES_CRITERIA member failed; unif-stab passed; fit-exp-nu passed; a _COUNTED
# member failed; every s-bin's ratios stay under the nonuniform cap
# (``_bins_bounded``).  A pattern holds one value per fact, None matching
# either; the first row whose pattern matches gives the label.
LABEL_RULES = (
    ((True, False, None, None, False, None), UES),
    ((None, None, None, True, False, None), ES_NOT_UES),
    ((False, True, True, None, None, None), US_NOT_UES),
    ((False, None, False, None, None, True), STABLE_ONLY),
    ((False, None, False, None, None, None), UNSTABLE),
    ((None, None, None, None, None, None), INCONCLUSIVE_VERDICT),
)

# each row that matches adds its text followed by its criteria that failed, in row order
DISCREPANCY_RULES = (
    ((True, True, None, None, None, None), "decay fit succeeded but criteria failed with witnesses: ", UES_CRITERIA),
    ((False, False, True, None, None, None), "no criterion failed but no decay fit was found", ()),
    ((True, False, None, None, True, None), "uniform panel certified UES but nonuniform criteria failed: ", _COUNTED),
)


def _matches(pattern, facts) -> bool:
    return all(p is None or p == f for p, f in zip(pattern, facts))


def derive(reports: list, bounded: bool) -> tuple:
    """(the deciding LABEL_RULES row's index, its label, the discrepancies) of a full panel's reports."""
    verdict = {r.criterion_id: r.verdict for r in reports}

    def failed(ids):
        return [cid for cid in ids if verdict.get(cid) == FAIL]

    facts = (verdict["fit-exp"] == PASS, bool(failed(UES_CRITERIA)), verdict["unif-stab"] == PASS,
             verdict["fit-exp-nu"] == PASS, bool(failed(_COUNTED)), bounded)
    row = next(i for i, (pattern, _) in enumerate(LABEL_RULES) if _matches(pattern, facts))
    return row, LABEL_RULES[row][1], [text + ", ".join(failed(ids))
                                      for pattern, text, ids in DISCREPANCY_RULES if _matches(pattern, facts)]


def run_rows(rows, selected, echo: dict, reports: list) -> None:
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


def _fit_report(fit: DecayFit | None, data: RatioData, n_cap: float, echo: dict) -> CriterionReport:
    if fit is not None:
        ev = {"N": fit.N, "nu": fit.nu, "residual": fit.residual, "probes_used": fit.probes_used,
              "skipped": fit.skipped, "n_cap": n_cap}
        return CriterionReport("fit-exp", PASS, ev, config_echo=echo)
    worst = data.log_ratio[first_max(data.log_ratio)].item()
    return CriterionReport("fit-exp", INCONCLUSIVE, {"reason": "no ladder rate admits a constant under the cap",
                           "max_ratio": math.exp(min(worst, 700.0)), "n_cap": n_cap}, config_echo=echo)


def _fit_nu_report(fit: DecayFit | None, n_cap: float, echo: dict) -> CriterionReport:
    if fit is not None:
        ev = {"nu": fit.nu, "max_N_of_s": fit.N, "N_of_s": [[s, n] for s, n in sorted(fit.N_of_s.items())],
              "n_cap": n_cap}
        return CriterionReport("fit-exp-nu", PASS, ev, config_echo=echo)
    return CriterionReport("fit-exp-nu", INCONCLUSIVE,
                           {"reason": "no ladder rate keeps every s-bin under the cap", "n_cap": n_cap},
                           config_echo=echo)


def shift_weight(fit: DecayFit | None) -> float:
    """The nonuniform criteria's weight alpha: half the uniform decay rate, else 1/2."""
    return fit.nu / 2.0 if fit is not None else 0.5


def run_nonuniform_panel(system: System, config, selected=None) -> StabilityVerdict:
    """Run the criteria of both settings in fixed order, and derive the label from ``LABEL_RULES``.

    Fail witnesses are decisive; passes are supporting evidence.  A decay
    fit beside fail witnesses, or UES beside nonuniform fail witnesses, is
    reported as a discrepancy (``DISCREPANCY_RULES``), never silently
    resolved.  ``selected`` runs only the named rows and labels nothing.
    """
    data = ratio_data(system, s_step=config.grid_step)
    cap = config.ncap_nonuniform
    nfit = fit_decay(data, data.s, cap)
    # the integer and growth grids are read from the panel grid when it covers them
    int_data = ratio_data(system, integer_only=True, within=data)
    gauge = make_gauge(config.gauge)
    env = estimate_growth(system, "uniform", grid_h=config.grid_h,
                          data=ratio_data(system, lag_max=config.grid_h, within=data))
    fit = fit_decay(data, np.zeros_like(data.lag), config.ncap)
    echo = {"gauge": gauge.describe(), "n_cap": config.ncap, "grid_h": config.grid_h}
    echo_nu = {"gauge": gauge.describe(), "n_cap": cap}
    alpha = shift_weight(fit)
    # a passing fit lets a criterion compute its integrals in one batch (None: batches of 1, 2, 4, ...)
    expect_nu = () if nfit is not None else None
    reports = []

    def expect(partner, time):  # None when no decay fit passed, else the weights batched alongside
        if fit is None and nfit is None:
            return None
        return (alpha,) if nfit is not None and time == "continuous" and (
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
        ("fit-exp-nu", lambda: _fit_nu_report(nfit, cap, echo_nu)),
        ("majorant", lambda: test_decaying_majorant(system, data, echo=echo_nu)),
        *((cid + "-nu", functools.partial(test_datko, system, form, time, gauge, config, alpha, expect=expect_nu))
          for (form, time), cid in _DATKO_IDS.items()),
        *((cid, functools.partial(test_barbashin_nonuniform, system, time, gauge, alpha, config, expect=expect_nu))
          for time, cid in (("continuous", "barbashin-nu"), ("discrete", "barbashin-d-nu"))),
    ], selected, echo, reports)
    if selected is not None:
        return StabilityVerdict(INCONCLUSIVE_VERDICT, reports, [], env.as_dict())
    _, label, discrepancies = derive(reports, _bins_bounded(data, cap))
    return StabilityVerdict(label, reports, discrepancies, env.as_dict())


def _bins_bounded(data: RatioData, cap: float) -> bool:
    """Whether every s-bin's largest ratio, floored at 1 (a nan never counts), stays under the cap."""
    lr = data.log_ratio
    return bool(lr.size) and np.max(lr, where=~np.isnan(lr), initial=0.0).item() <= math.log(cap)
