"""The grid criteria's array reductions against the probe-by-probe loops they replaced.

The loops below are the reference: on seeded random probe sets with ties,
signed zeros, infinities and nans they must give the same reports, bit for
bit, and the reductions must not warn where Python's float arithmetic is
silent.
"""

import math
import random
import warnings

import numpy as np
import pytest

from skewflow import gallery
from skewflow.errors import DegenerateProbe
from skewflow.growth import M_CAP_NONUNIFORM, M_CAP_UNIFORM, OMEGA_LADDER, estimate_growth, verify_growth
from skewflow.nonuniform import _bins_bounded, fit_nonuniform_decay
from skewflow.nonuniform import test_decaying_majorant as majorant_check
from skewflow.probes import RatioData, RatioProbe
from skewflow.reports import witness_dict
from skewflow.uniform import NU_LADDER, _fit_report, fit_exponential_decay
from skewflow.uniform import test_divergent_minorant as minorant_check
from skewflow.uniform import test_uniform_stability as uniform_stability_check

SYSTEM = gallery.build("spike")
VALUES = (0.0, -0.0, 1.0, -2.0, 5.0, 20.0, 1e308, -1e308, math.inf, -math.inf, math.nan)


def _probes(rng):
    out = []
    for _ in range(rng.randint(1, 40)):
        s, lag = rng.choice((0.0, 0.3, 0.5, 2.0)), rng.choice((0.0, 0.1, 1.0, 3.0, 11.0, 12.0))
        out.append(RatioProbe(s + lag, s, max(0.0, s - rng.choice((0.0, 1.5))), rng.choice(SYSTEM.state_samples),
                              rng.choice(SYSTEM.vector_samples), lag, rng.choice(VALUES)))
    return out


def _columns(ps):
    cols = [np.array([getattr(p, f) for p in ps]) for f in ("t", "s", "t0", "lag", "log_ratio")]
    xi = np.array([SYSTEM.state_samples.index(p.x) for p in ps])
    vi = np.array([SYSTEM.vector_samples.index(p.v) for p in ps])
    return RatioData(SYSTEM, None, *cols, xi, vi, 0, np.zeros((2, 0)))


def _witness(p):
    return witness_dict(t=p.t, s=p.s, t0=p.t0, x=p.x, v=p.v)


def ref_fit(ps):
    for nu in sorted(NU_LADDER, reverse=True):
        log_n = max(p.log_ratio + nu * p.lag for p in ps)
        if log_n <= math.log(1e3):
            n = max(1.0, math.exp(log_n))
            resid = max(0.0, max(math.exp(min(p.log_ratio + nu * p.lag, 700.0)) - n for p in ps))
            return {"N": n, "nu": nu, "residual": resid, "probes_used": len(ps), "skipped": 0}
    return None


def ref_minorant(ps):
    by_lag = {}
    for p in ps:
        if p.lag not in by_lag or p.log_ratio > by_lag[p.lag].log_ratio:
            by_lag[p.lag] = p
    lags = sorted(by_lag)
    cleaned = [-by_lag[h].log_ratio for h in lags]
    for i in range(len(cleaned) - 2, -1, -1):
        cleaned[i] = min(cleaned[i], cleaned[i + 1])
    return [[h, math.exp(min(c, 700.0))] for h, c in zip(lags, cleaned)], by_lag[lags[-1]]


def ref_majorant(ps):
    bins = {}
    for p in ps:
        curve = bins.setdefault(p.s, {})
        if p.lag not in curve or p.log_ratio > curve[p.lag].log_ratio:
            curve[p.lag] = p
    g_star, arg = {}, {}
    for curve in bins.values():
        norm = curve[min(curve)].log_ratio
        for h, p in curve.items():
            if h not in g_star or p.log_ratio - norm > g_star[h]:
                g_star[h], arg[h] = p.log_ratio - norm, p
    hs = sorted(g_star)
    cleaned = [g_star[h] for h in hs]
    for i in range(len(cleaned) - 2, -1, -1):
        cleaned[i] = max(cleaned[i], cleaned[i + 1])
    return [[h, math.exp(max(min(c, 700.0), -700.0))] for h, c in zip(hs, cleaned)], arg[hs[-1]]


def ref_bins(ps, setting, omega_const=False):
    def fit(entries, cap):
        for omega in OMEGA_LADDER:
            log_m = max(lr - omega * h for lr, h in entries)
            if log_m <= math.log(cap):
                return omega, max(1.0, math.exp(log_m))
        log_m = max(lr - OMEGA_LADDER[-1] * h for lr, h in entries)
        return OMEGA_LADDER[-1], max(1.0, math.exp(min(log_m, 700.0)))

    entries = [(p.log_ratio, p.lag) for p in ps if p.lag <= 10.0]
    if setting == "uniform":
        return fit(entries, M_CAP_UNIFORM)
    bins = {}
    for p in ps:
        if p.lag <= 10.0:
            bins.setdefault(p.s, []).append((p.log_ratio, p.lag))
    table = {s: fit(ent, M_CAP_NONUNIFORM) for s, ent in sorted(bins.items())}
    if omega_const:
        top = max(w for w, _ in table.values())
        table = {s: (top, max(1.0, math.exp(min(max(lr - top * h for lr, h in bins[s]), 700.0)))) for s in table}
    return table


@pytest.mark.parametrize("seed", range(4))
def test_reductions_match_the_probe_loops(seed):
    rng = random.Random(seed)
    for _ in range(100):
        ps = _probes(rng)
        data = _columns(ps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_exponential_decay(SYSTEM, data)
            assert repr(fit and fit.as_dict()) == repr(ref_fit(ps))
            worst = max(ps, key=lambda p: p.log_ratio)
            n = max(1.0, math.exp(min(worst.log_ratio, 700.0)))
            r = uniform_stability_check(SYSTEM, data)
            assert r.evidence["N"] == n and r.witness in (None, dict(_witness(worst), ratio=n))
            r = minorant_check(SYSTEM, data, min_lag=0.0)
            table, worst = ref_minorant(ps)
            if "f_hat" in r.evidence:
                assert repr(r.evidence["f_hat"]) == repr(table)
                assert r.witness is None or r.witness == _witness(worst)
            r = majorant_check(SYSTEM, data, min_lag=0.0)
            if "g_star" in r.evidence:
                table, worst = ref_majorant(ps)
                assert repr(r.evidence["g_star"]) == repr(table)
                assert r.witness is None or r.witness == _witness(worst)
            nfit = fit_nonuniform_decay(SYSTEM, data)
            assert nfit is None or all(n >= 1.0 for n in nfit.N_of_s.values())
            bins = {}
            for p in ps:
                bins[p.s] = max(bins.get(p.s, 0.0), p.log_ratio)
            assert _bins_bounded(data, 1e6) == (max(bins.values()) <= math.log(1e6))
            if any(p.lag <= 10.0 for p in ps):
                env = estimate_growth(SYSTEM, "uniform", data=data)
                assert repr((env.omega, env.M)) == repr(ref_bins(ps, "uniform"))
                non = estimate_growth(SYSTEM, "nonuniform", data=data, omega_const=True)
                assert repr({s: (non.omega_by_s[s], non.M_by_s[s]) for s in non.M_by_s}) == repr(
                    ref_bins(ps, "nonuniform", True))
                bad = verify_growth(SYSTEM, env, data)
                bound = math.log(env.M)
                want = next((p for p in ps if p.log_ratio > bound + env.omega * p.lag + 1e-9), None)
                assert repr(bad) == repr(want)


def test_an_empty_probe_set_is_a_degenerate_probe():
    empty = _columns([])
    for check in (fit_exponential_decay, uniform_stability_check, lambda s, d: _fit_report(None, d, 1e3, {})):
        with pytest.raises(DegenerateProbe):
            check(SYSTEM, empty)
