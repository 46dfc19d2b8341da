"""Deterministic probe grids shared by the stability criteria.

All grids are pure functions of the system's declared horizons and the run
configuration, so every criterion sees the same probe set on every run.
Randomized law-check probes are drawn from a seeded generator.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import States, System, log_abs, log_norms
from .errors import DegenerateProbe

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


class RatioProbe(NamedTuple):
    """One ratio probe, as a witness reads it."""

    t: float
    s: float
    t0: float
    x: object
    v: tuple
    lag: float
    log_ratio: float  # log ||Phi(t,t0,x)v|| - log ||Phi(s,t0,x)v||


@dataclass(frozen=True, eq=False)
class RatioData:
    """The ratio probes of one grid as columns, and as a sequence of RatioProbe built when read.

    Probe i is at t = s + lag from t0, for the state ``system.state_samples[xi]``
    and the vector ``system.vector_samples[vi]``.  The grid (svals, offsets,
    lags, extras) has the rows (s, max(0, s - off), x, v) for s in svals and
    off in offsets, each over the lags, then the last ``extra`` probes: the
    extra (t, s) pairs, with t0 = s.  ``skipped_rows`` holds (s, t0) of each
    row whose denominator underflowed to zero.
    """

    system: System
    grid: tuple
    t: np.ndarray
    s: np.ndarray
    t0: np.ndarray
    lag: np.ndarray
    log_ratio: np.ndarray
    xi: np.ndarray
    vi: np.ndarray
    extra: int
    skipped_rows: np.ndarray

    @property
    def skipped(self) -> int:
        return self.skipped_rows.shape[1]

    @property
    def probes(self) -> RatioData:
        return self

    def __len__(self) -> int:
        return self.log_ratio.size

    def __getitem__(self, i: int) -> RatioProbe:
        return RatioProbe(self.t[i].item(), self.s[i].item(), self.t0[i].item(), self.system.state_samples[self.xi[i]],
                          self.system.vector_samples[self.vi[i]], self.lag[i].item(), self.log_ratio[i].item())

    def select(self, grid: tuple) -> RatioData:
        """The probes of a grid this one covers, in their order, with its own skipped rows."""
        svals, offsets, lags, extras = grid

        def rows(s, t0):
            return _isin(s, svals) & np.any([t0 == np.maximum(0.0, s - off) for off in offsets], axis=0)

        keep = rows(self.s, self.t0) & _isin(self.lag, lags)
        keep[keep.size - self.extra:] = bool(extras)
        columns = (c[keep] for c in (self.t, self.s, self.t0, self.lag, self.log_ratio, self.xi, self.vi))
        return RatioData(self.system, grid, *columns, self.extra if extras else 0,
                         self.skipped_rows[:, rows(*self.skipped_rows)])


def _isin(a: np.ndarray, values) -> np.ndarray:
    v = np.sort(np.asarray(values, dtype=float))
    return v[np.minimum(np.searchsorted(v, a), v.size - 1)] == a


class Groups:
    """The probes grouped by equal values of some columns: the groups in ascending order of
    those values (``keys``), each in probe order; ``code`` is each probe's group."""

    def __init__(self, *columns: np.ndarray):
        n = columns[0].size
        self.order = np.lexsort((np.arange(n),) + columns[::-1])
        new = np.ones(n, dtype=bool)
        new[1:] = np.any([c[self.order][1:] != c[self.order][:-1] for c in columns], axis=0)
        self.starts = np.flatnonzero(new)
        self.keys = [c[self.order[self.starts]] for c in columns]
        self.code = np.empty(n, dtype=int)
        self.code[self.order] = np.cumsum(new) - 1

    def argmax(self, a: np.ndarray) -> np.ndarray:
        """Per group, the probe that Python's ``max`` takes over the group's values of a, in probe order:
        the first maximum wins a tie; a nan in first place is kept, and a later nan never wins."""
        v = a[self.order]
        key = np.where(np.isnan(v), -np.inf, v)
        key[self.starts] = np.where(np.isnan(v[self.starts]), np.inf, v[self.starts])
        top = np.maximum.reduceat(key, self.starts)
        at = np.where(key == top[self.code[self.order]], np.arange(v.size), v.size)
        return self.order[np.minimum.reduceat(at, self.starts)]


def first_max(a: np.ndarray) -> int:
    """The index of the element Python's ``max(a)`` returns (see ``Groups.argmax``)."""
    if not a.size:
        raise DegenerateProbe("no usable probes")
    return 0 if np.isnan(a[0]) else int(np.argmax(np.where(np.isnan(a), -np.inf, a)))


def ratio_data(
    system: System,
    lag_max: float | None = None,
    s_step: float = 0.5,
    integer_only: bool = False,
    within: RatioData | None = None,
) -> RatioData:
    """Trajectory-norm ratio probes over the system's declared horizons.

    Each probe records log(||Phi(t,t0,x)v|| / ||Phi(s,t0,x)v||) for
    t = s + lag, with s <= s_max and t0 <= s at a few spacings.  The
    system's extra time pairs are appended with t0 = s.  Rows whose
    denominator underflows to zero are skipped and counted.  A grid that
    ``within`` covers is selected from it, not evaluated again.
    """
    h = system.horizons
    cap = h.lag_max if lag_max is None else min(lag_max, h.lag_max)
    if integer_only:  # the integer s are the t0 grid, and t0 = s
        grid = (t0_grid(h.s_max), (0.0,), [lag for lag in lag_grid(cap) if lag.is_integer()], ())
    else:
        grid = (s_grid(h.s_max, s_step), _OFFSETS, lag_grid(cap), h.extra_pairs)
    if within is not None and all(set(mine) >= set(other) for mine, other in zip(within.grid, grid)):
        return within.select(grid)

    svals, offsets, lags, extras = grid
    rs, rt0, rxi, rvi = _rows(system, dict.fromkeys((s, max(0.0, s - off)) for s in svals for off in offsets))
    offs = np.array([0.0] + lags)
    # rows in blocks of about 2048 evaluations, so no temporary grows with the grid
    step = max(1, 2048 // offs.size)
    ln = np.concatenate([_log_norms(system, rs[j:j + step, None] + offs, rt0[j:j + step], rxi[j:j + step],
                                    rvi[j:j + step]) for j in range(0, rs.size, step)])
    with np.errstate(invalid="ignore"):
        ratios = ln[:, 1:] - ln[:, :1]
    ok = ln[:, 0] != -np.inf
    lag = np.tile(lags, ok.sum())
    s, t0, xi, vi = (np.repeat(c[ok], len(lags)) for c in (rs, rt0, rxi, rvi))
    et, es, exi, evi = _rows(system, extras)
    eln = _log_norms(system, et[:, None], es, exi, evi).ravel()
    columns = (np.concatenate(c) for c in zip((s + lag, s, t0, lag, ratios[ok].ravel(), xi, vi),
                                              (et, es, es, et - es, eln, exi, evi)))
    return RatioData(system, grid, *columns, et.size, np.stack([rs[~ok], rt0[~ok]]))


def _rows(system: System, pairs) -> tuple:
    """a, b and the state and vector indices of the rows (a, b, x, v): per pair (a, b), then state x, then vector v."""
    nx, nv = len(system.state_samples), len(system.vector_samples)
    a, b = np.repeat(np.array(list(pairs), dtype=float).reshape(-1, 2), nx * nv, axis=0).T
    return a, b, np.tile(np.repeat(np.arange(nx), nv), a.size // (nx * nv)), np.tile(np.arange(nv), a.size // nv)


def _log_norms(system: System, t: np.ndarray, t0: np.ndarray, xi: np.ndarray, vi: np.ndarray) -> np.ndarray:
    """log ||Phi(t, t0, x) v|| for the rows (t0, x, v) of xi and vi, at the times of one line of t each."""
    each = functools.partial(np.repeat, repeats=t.shape[1], axis=-1)
    states = States.of(system.state_samples)
    lw = np.stack([log_abs(v) for v in system.vector_samples], axis=1)[:, vi]
    x = States(each(states.value[xi]), each(states.real[xi]))
    return log_norms(system, t.ravel(), each(t0), x, each(lw)).reshape(t.shape)


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
