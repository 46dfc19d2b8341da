"""Exponential growth envelopes, uniform and binned-by-s.

An envelope certifies ||Phi(t,t0,x)v|| <= M e^{omega (t-s)} ||Phi(s,t0,x)v||
over a probe set.  omega comes from a fixed ladder so estimates are
reproducible; M is the smallest constant making the inequality hold on the
probes (clamped to >= 1).  When even the top ladder rung needs M above the
cap, the envelope is flagged dubious: criteria whose hypotheses require
genuine uniform growth refuse to run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import System
from .errors import DegenerateProbe
from .probes import Groups, RatioData

OMEGA_LADDER = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

M_CAP_UNIFORM = 1e3
M_CAP_NONUNIFORM = 1e6


@dataclass(frozen=True)
class GrowthEnvelope:
    kind: str                      # "uniform" | "nonuniform"
    M: float | None = None
    omega: float | None = None
    M_by_s: dict | None = None
    omega_by_s: dict | None = None
    dubious: bool = False
    skipped: int = 0

    def as_dict(self) -> dict:
        d = {"kind": self.kind, "dubious": self.dubious, "skipped": self.skipped}
        if self.kind == "uniform":
            d["M"] = self.M
            d["omega"] = self.omega
        else:
            d["M_by_s"] = [[s, m] for s, m in sorted(self.M_by_s.items())]
            d["omega_by_s"] = [[s, w] for s, w in sorted(self.omega_by_s.items())]
        return d


def _fit_bins(bins: Groups, log_ratio, lag, cap: float):
    """Per bin: the least ladder omega whose M stays under the cap, its M, and whether the top rung stood in."""
    todo = np.ones(len(bins.starts), dtype=bool)
    omega, log_m = np.full(todo.size, OMEGA_LADDER[-1]), np.empty(todo.size)
    for w in OMEGA_LADDER:
        if todo.any():  # a bin no rung fits keeps the top rung's constant
            a = log_ratio - w * lag
            log_m[todo] = a[bins.argmax(a)][todo]
            fit = todo & (log_m <= math.log(cap))
            omega[fit] = w
            todo &= ~fit
    return omega.tolist(), [max(1.0, math.exp(min(x, 700.0))) for x in log_m.tolist()], todo.tolist()


def estimate_growth(
    system: System,
    setting: str = "uniform",
    grid_h: float = 10.0,
    *, data: RatioData,
    omega_const: bool = False,
) -> GrowthEnvelope:
    keep = data.lag <= grid_h
    lr, lag, s = data.log_ratio[keep], data.lag[keep], data.s[keep]
    if not lr.size:
        raise DegenerateProbe("no usable growth probes")
    if setting == "uniform":
        (omega,), (m,), (dubious,) = _fit_bins(Groups(np.zeros(lr.size)), lr, lag, M_CAP_UNIFORM)
        return GrowthEnvelope("uniform", M=m, omega=omega, dubious=dubious, skipped=data.skipped)

    bins = Groups(s)
    omegas, ms, bad = _fit_bins(bins, lr, lag, M_CAP_NONUNIFORM)
    keys = bins.keys[0].tolist()
    w_by_s, m_by_s = dict(zip(keys, omegas)), dict(zip(keys, ms))
    if omega_const:
        top = max(omegas)
        w_by_s = {s: top for s in w_by_s}
        # refit the constants under the collapsed rate
        a = lr - top * lag
        m_by_s = {s: max(1.0, math.exp(min(x, 700.0))) for s, x in zip(keys, a[bins.argmax(a)].tolist())}
    return GrowthEnvelope(
        "nonuniform", M_by_s=m_by_s, omega_by_s=w_by_s, dubious=any(bad), skipped=data.skipped
    )


def verify_growth(system: System, env: GrowthEnvelope, data: RatioData):
    """Check the envelope inequality on probes (relative slack 1e-9).

    Returns None when every probe satisfies it, otherwise the first
    violating probe.
    """
    if env.kind == "uniform":
        bound = math.log(env.M) + env.omega * data.lag
    else:
        bins = Groups(data.s)
        keys = [s if s in env.M_by_s else min(env.M_by_s, key=lambda k: abs(k - s))
                for s in bins.keys[0].tolist()]
        env_at = np.array([(math.log(env.M_by_s[k]), env.omega_by_s[k]) for k in keys]).reshape(-1, 2)[bins.code]
        bound = env_at[:, 0] + env_at[:, 1] * data.lag
    bad = np.flatnonzero(data.log_ratio > bound + 1e-9)
    return data.probes[bad[0]] if bad.size else None
