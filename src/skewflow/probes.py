"""Deterministic probe grids shared by the stability criteria.

All grids are pure functions of the system's declared horizons and the run
configuration, so every criterion sees the same probe set on every run.
Randomized law-check probes are drawn from a seeded generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import System, log_norm_path

# dense coverage of short lags, then geometric coverage out to the cap
_LAG_BASE = (
    0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0,
    4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
)

# spacings between t0 and s, exercising the state drift of the semiflow
_OFFSETS = (0.0, 1.5, 3.0)


def lag_grid(lag_max: float) -> list:
    lags = [h for h in _LAG_BASE if h <= lag_max]
    g = 16.0
    while g <= lag_max:
        lags.append(g)
        g *= 2.0
    if lags[-1] != lag_max:
        lags.append(float(lag_max))
    return lags


def s_grid(s_max: float, step: float = 0.5) -> list:
    n = int(math.floor(s_max / step + 1e-9))
    return [i * step for i in range(n + 1)]


def t0_grid(s_max: float) -> list:
    return [float(i) for i in range(int(math.floor(s_max)) + 1)]


@dataclass(frozen=True)
class RatioProbe:
    t: float
    s: float
    t0: float
    x: object
    v: tuple
    lag: float
    log_ratio: float  # log ||Phi(t,t0,x)v|| - log ||Phi(s,t0,x)v||


@dataclass(frozen=True)
class RatioData:
    probes: tuple
    skipped: int

    def lags(self) -> list:
        return sorted({p.lag for p in self.probes})


def ratio_data(
    system: System,
    lag_max: float | None = None,
    s_step: float = 0.5,
    integer_only: bool = False,
) -> RatioData:
    """Trajectory-norm ratio probes over the system's declared horizons.

    Each probe records log(||Phi(t,t0,x)v|| / ||Phi(s,t0,x)v||) for
    t = s + lag, with s <= s_max and t0 <= s at a few spacings.  The
    system's extra time pairs are appended with t0 = s.  Probes whose
    denominator underflows to zero are skipped and counted.
    """
    h = system.horizons
    cap = h.lag_max if lag_max is None else min(lag_max, h.lag_max)
    if integer_only:
        lags = [lag for lag in lag_grid(cap) if lag.is_integer()]
        svals = t0_grid(h.s_max)
        offsets = (0.0,)
    else:
        lags = lag_grid(cap)
        svals = s_grid(h.s_max, s_step)
        offsets = _OFFSETS

    samples = [(v, log_norm_path(system, v)) for v in system.vector_samples]
    probes = []
    skipped = 0
    seen = set()
    for s in svals:
        for off in offsets:
            t0 = max(0.0, s - off)
            if integer_only:
                t0 = float(int(t0))
            key = (s, t0)
            if key in seen:
                continue
            seen.add(key)
            for x in system.state_samples:
                for v, log_norm in samples:
                    ln_s = log_norm(s, t0, x)
                    if ln_s == float("-inf"):
                        skipped += 1
                        continue
                    for lag in lags:
                        t = s + lag
                        ln_t = log_norm(t, t0, x)
                        probes.append(RatioProbe(t, s, t0, x, v, lag, ln_t - ln_s))
    if not integer_only:
        for t, s in h.extra_pairs:
            for x in system.state_samples:
                for v, log_norm in samples:
                    ln_t = log_norm(t, s, x)
                    probes.append(RatioProbe(t, s, s, x, v, t - s, ln_t))
    return RatioData(tuple(probes), skipped)


def tail_probes(system: System) -> list:
    """(t0, x, v) triples for forward tail integrals."""
    return [
        (t0, x, v)
        for t0 in t0_grid(system.horizons.s_max)
        for x in system.state_samples
        for v in system.vector_samples
    ]


def backward_pairs(system: System) -> list:
    """(t, t0) pairs for backward (adjoint) integrals over [t0, t]."""
    h = system.horizons
    blags = [b for b in (0.0, 1.0, 3.0, 7.0, 30.0, 100.0) if b <= min(h.lag_max, h.tail_cap)]
    pairs = []
    for t0 in t0_grid(h.s_max):
        for b in blags:
            pairs.append((t0 + b, t0))
    for t, s in h.extra_pairs:
        t0 = max(0.0, math.floor(s) - 3.0)
        pairs.append((t, t0))
    return pairs


def discrete_pairs(system: System) -> list:
    """(n, n0) integer pairs for discrete-time sums."""
    h = system.horizons
    dl = [k for k in (1, 2, 3, 5, 7, 16, 32, 64) if k <= min(h.lag_max, 64)]
    return [(n0 + k, n0) for n0 in (int(v) for v in t0_grid(h.s_max)) for k in dl]


def law_probes(system: System, n: int, seed: int) -> list:
    """Seeded random (t, s, t0, x, v) tuples for the flow-law checks."""
    rng = random.Random(seed)
    h = system.horizons
    out = []
    for i in range(n):
        t0 = rng.uniform(0.0, h.s_max)
        s = t0 + rng.uniform(0.0, 3.0)
        t = s + rng.uniform(0.0, min(6.0, h.lag_max))
        if i % 17 == 0:
            t = s  # exercise the equal-time identity explicitly
        x = rng.choice(system.state_samples)
        v = rng.choice(system.vector_samples)
        out.append((t, s, t0, x, v))
    return out
