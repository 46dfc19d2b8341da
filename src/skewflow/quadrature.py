"""Deterministic integration and series summation for the criterion panel.

Each kernel runs a batch of integrals over one array integrand ``F(x, k)``,
the values at points ``x`` of the integrals ``k``.  ``F`` may raise
``OverflowError``, as ``math.exp`` does; ``evaluate`` then finds the points
that raise by bisection, and each of them counts as a non-finite value.

Finite intervals use adaptive Simpson, refined level by level (one call
of ``F`` per level), bit for bit a depth-first run; tails integrate unit
blocks and series add terms until one settles or a horizon cap is hit,
which is ``converged = False`` with the partial value, never an
exception.  The README ("Numerical conventions") states the rules.

Each integral has its own evaluation cap and fails on its own: its result
is then the ``NonFinite`` or ``BudgetExceeded`` instance.  Precedence:
evaluations run level by level, within a level segment by segment from
left to right, and the cap is checked before each; an integral that meets
a non-finite value or Simpson sum before its cap in that order fails with
``NonFinite``, otherwise with ``BudgetExceeded``.  A series term counts as
one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NonFinite

EVAL_CAP = 1_000_000
_EPS = 2.0 ** -52
_SLICE = 256  # segments per array pass, so no temporary grows with the batch
_AHEAD_POINTS = 4096  # evaluations a round spends ahead on one tail, at most about

# a split segment's halves as rows of (x0, mid, x2, f(x0), f(mid), f(x2), f at the
# quarter points, left and right Simpson sums, tol share, integral index)
_LEFT = [0, 1, 3, 6, 4, 8, 10, 11]
_RIGHT = [1, 2, 4, 7, 5, 9, 10, 11]


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error_estimate: float
    converged: bool
    evaluations: int
    truncation_horizon: float


def evaluate(F, x: np.ndarray, k: np.ndarray):
    """F(x, k), and where it raised OverflowError: those points are nan, found by bisection."""
    try:
        return F(x, k), np.zeros(x.size, dtype=bool)
    except OverflowError:
        if x.size == 1:
            return np.full(1, np.nan), np.ones(1, dtype=bool)
    h = x.size // 2
    (y0, o0), (y1, o1) = evaluate(F, x[:h], k[:h]), evaluate(F, x[h:], k[h:])
    return np.concatenate([y0, y1]), np.concatenate([o0, o1])


def _first(k: np.ndarray, flagged: np.ndarray):
    """(integral, position) of the first flagged point of each integral."""
    first, at = np.unique(k[flagged], return_index=True)
    return zip(first.tolist(), np.flatnonzero(flagged)[at].tolist())


def _evaluate(F, x, k, remaining, caps, errors):
    """F at the points x of the integrals k (grouped, in order), within each budget.

    Returns the values (nan past a budget) and the evaluations per integral;
    ``errors`` gets a BudgetExceeded for each integral cut short and a
    NonFinite for each that met a non-finite value.
    """
    if k.size and remaining[k].min() >= k.size:  # no budget binds within this level
        y, over = evaluate(F, x, k)
        if np.isfinite(y).all():
            return y, np.bincount(k, minlength=remaining.size)
        within = np.ones(k.size, dtype=bool)
    else:
        within = np.arange(k.size) - np.searchsorted(k, k) < remaining[k]
        if not within.all():
            errors.update((i, BudgetExceeded(f"evaluation cap {caps[i]} reached")) for i in set(k[~within].tolist()))
        y, over = np.full(k.size, np.nan), np.zeros(k.size, dtype=bool)
        if within.any():
            y[within], over[within] = evaluate(F, x[within], k[within])
    bad = within & ~np.isfinite(y)
    if bad.any():
        for i, j in _first(k, bad):
            errors[i] = NonFinite(f"integrand overflowed at x={x[j]}" if over[j] else f"integrand returned {y[j]} at x={x[j]}")
    return y, np.bincount(k[within], minlength=remaining.size)


def _overflowed(sums, values, k, x0, x2, errors):
    """A NonFinite for each integral whose Simpson sum over a segment of finite values left float range."""
    finite = np.isfinite(sums)
    if not finite.all():
        for i, j in _first(k, ~finite & np.isfinite(values).all(axis=0)):
            if not isinstance(errors.get(i), NonFinite):
                errors[i] = NonFinite(f"integral overflowed on [{x0[j]}, {x2[j]}]")


def _pieces(m: np.ndarray) -> list:
    """The columns of m in pieces of at most _SLICE, so no temporary grows with the batch."""
    return [m[:, j:j + _SLICE] for j in range(0, m.shape[1], _SLICE)]


def _take(pieces: list) -> np.ndarray:
    """The columns of pieces popped off the end of the list until _SLICE or more, or the list, are used up."""
    group = [pieces.pop()]
    while pieces and sum(p.shape[1] for p in group) < _SLICE:
        group.append(pieces.pop())
    return group[0] if len(group) == 1 else np.concatenate(group, axis=1)


@np.errstate(all="ignore")
def simpson(F, a, b, tol, caps, rel_tol: float = 1e-9) -> list:
    """Adaptive Simpson estimates of the integrals of F over [a_i, b_i]: a result or error each.

    Each interval is bisected until each segment's Richardson error estimate
    fits within its proportional share of ``tol_i`` plus ``rel_tol`` of the
    segment value (the relative term lets integrands spanning hundreds of
    orders of magnitude terminate; absolute precision beyond float range is
    unattainable anyway), or is narrower than 1e-13 of the interval.
    """
    a, b, tol = (np.asarray(v, dtype=float) for v in (a, b, tol))
    caps = np.asarray(caps, dtype=np.int64)
    if not (b >= a).all():
        i = int(np.argmin(b >= a))
        raise ValueError(f"need b >= a, got a={a[i]}, b={b[i]}")
    if not (tol > 0.0).all():
        raise ValueError("tol must be positive")
    live = np.flatnonzero(a != b)
    errors: dict = {}
    y, n = _evaluate(F, np.stack([a, b, 0.5 * (a + b)], axis=1)[live].ravel(), np.repeat(live, 3),
                     caps, caps, errors)
    fa, fb, fm = y[0::3], y[1::3], y[2::3]
    whole = (b[live] - a[live]) / 6.0 * (fa + 4.0 * fm + fb)
    _overflowed(whole, (fa, fb, fm), live, a[live], b[live], errors)
    min_width = (b - a) * 1e-13
    # pending segments as rows x0, x2, f(x0), f(mid), f(x2), Simpson sum, tol share,
    # integral index: grouped by integral and left to right, in pieces
    level = _pieces(np.array([a[live], b[live], fa, fm, fb, whole, tol[live], live]))
    done = [[np.empty(0)] for _ in range(4)]  # accepted integral indices, left ends, contributions, errors
    dropped = 0  # how many integrals of errors, in the order they failed, have their segments dropped
    while level:
        children = []
        level.reverse()  # _take pops from the end: the pieces in order
        while level:
            if len(errors) > dropped:  # drop the segments of the integrals that failed since
                gone, dropped = list(errors)[dropped:], len(errors)
                level, children = ([p[:, ~np.isin(p[7], gone)] for p in ps] for ps in (level, children))
            x0, x2, f0, f1, f2, s, seg_tol, kf = _take(level)
            k = kf.astype(np.intp)
            mid = 0.5 * (x0 + x2)
            pts = np.empty(2 * k.size)
            pts[0::2], pts[1::2] = 0.5 * (x0 + mid), 0.5 * (mid + x2)
            y, made = _evaluate(F, pts, np.repeat(k, 2), caps - n, caps, errors)
            n += made
            flm, frm = y[0::2], y[1::2]
            sl = (mid - x0) / 6.0 * (f0 + 4.0 * flm + f1)
            sr = (x2 - mid) / 6.0 * (f1 + 4.0 * frm + f2)
            s2 = sl + sr
            _overflowed(s2, (flm, frm), k, x0, x2, errors)
            diff = s2 - s
            err = abs(diff) / 15.0
            accept = (err <= seg_tol + rel_tol * abs(s2)) | ((x2 - x0) <= min_width[k])
            every = accept.all()
            for store, v in zip(done, (kf, x0, s2 + diff / 15.0, err)):
                store.append(v if every else v[accept])
            if not every:  # each split segment becomes its left then its right half, so the order holds
                parts = np.array([x0, mid, x2, f0, f1, f2, flm, frm, sl, sr, seg_tol, kf])[:, ~accept]
                child = np.empty((8, 2 * parts.shape[1]))
                child[:, 0::2] = parts[_LEFT]
                child[:, 1::2] = parts[_RIGHT]
                child[6] *= 0.5
                children += _pieces(child)
        level = children
    # each integral's contributions in order of their left ends, added one at a time
    # (ufunc.at adds in index order); each store is freed once it is joined
    k, x0, c, e = [np.concatenate(done.pop(0)) for _ in range(4)]
    order = np.lexsort((x0, k))
    del x0
    k = k[order].astype(np.intp)
    totals, err_totals = np.zeros(a.size), np.zeros(a.size)
    np.add.at(totals, k, c[order])
    np.add.at(err_totals, k, e[order])
    return [errors[i] if i in errors else
            IntegralResult(ti, ei, ei <= tol_i + rel_tol * abs(ti), ni, bi)
            for i, (ti, ei, tol_i, ni, bi) in enumerate(zip(totals.tolist(), err_totals.tolist(), tol.tolist(),
                                                             n.tolist(), b.tolist()))]


def _settled(part, total, tol):
    """Whether a block or term is below tol/10 or too small to move the running total."""
    return (abs(part) < tol / 10.0) | (abs(part) <= _EPS * abs(total))


def tails(F, a, horizon_caps, tol: float, eval_cap: int = EVAL_CAP, block: float = 1.0,
          window: int = 1) -> list:
    """Integrals of F over [a_i, inf) in blocks [a, a+1], [a+1, a+2], ...: a result or error each.

    The budget a block leaves passes to the next.  A round integrates the
    next blocks of every running tail in one ``simpson`` call: one each when
    ``window`` is 1, else 16, then twice as many each round up to
    ``window``, and no more than about _AHEAD_POINTS evaluations' worth at
    the cost of the tail's dearest block so far (a bound on the round's
    arrays), each with the budget left before the round.  The blocks are
    then taken in order; one that spent more than the budget truly left to
    it is integrated again with that budget, and those past a tail's stop
    are dropped.
    """
    a, caps = list(map(float, a)), list(map(float, horizon_caps))
    if not all(h > ai for ai, h in zip(a, caps)):
        raise ValueError("horizon_cap must exceed the lower limit")
    block_tol = [tol / (10.0 * max(1, math.ceil((h - ai) / block))) for ai, h in zip(a, caps)]
    total, err_total, evals, out, end = [0.0] * len(a), [0.0] * len(a), [0] * len(a), [None] * len(a), list(a)
    active = [i for i in range(len(a)) if end[i] < caps[i] - 1e-12]
    ahead, dearest = [min(window, 16)] * len(a), [1] * len(a)
    while active:
        plan = []  # (tail, lower, upper, budget), each tail's blocks in order
        for i in active:
            lo = end[i]
            for _ in range(ahead[i]):
                hi = min(lo + block, caps[i])
                plan.append((i, lo, hi, eval_cap - evals[i]))
                lo = hi
                if not lo < caps[i] - 1e-12:
                    break
        owner = np.array([p[0] for p in plan])
        results = simpson(lambda x, k: F(x, owner[k]), [p[1] for p in plan], [p[2] for p in plan],
                          [block_tol[p[0]] for p in plan], [p[3] for p in plan])
        for (i, lo, hi, budget), r in zip(plan, results):
            if out[i] is not None or end[i] != lo:
                continue  # past this tail's stop
            left = eval_cap - evals[i]
            if left != budget and not (isinstance(r, IntegralResult) and r.evaluations <= left):
                (r,) = simpson(lambda x, k: F(x, np.full(k.size, i)), [lo], [hi], [block_tol[i]], [left])
            if not isinstance(r, IntegralResult):
                out[i] = r
                continue
            dearest[i] = max(dearest[i], r.evaluations)
            evals[i] += r.evaluations
            total[i] += r.value
            err_total[i] += r.abs_error_estimate
            end[i] = hi
            if not math.isfinite(total[i]):
                out[i] = NonFinite(f"tail integral overflowed by s={hi}")
            elif _settled(r.value, total[i], tol):
                out[i] = IntegralResult(total[i], err_total[i] + abs(r.value), True, evals[i], hi)
            elif not hi < caps[i] - 1e-12:
                out[i] = IntegralResult(total[i], err_total[i], False, evals[i], hi)
        active = [i for i in active if out[i] is None]
        for i in active:
            ahead[i] = max(1, min(window, 2 * ahead[i], _AHEAD_POINTS // dearest[i]))
    return [r if r is not None else IntegralResult(0.0, 0.0, False, 0, end[i]) for i, r in enumerate(out)]


def series(F, n0, tol: float, caps, eval_cap: int = EVAL_CAP, window: int = 1) -> list:
    """Partial sums of F(n0_i) + F(n0_i + 1) + ...: a result or error each.

    A sum stops after three consecutive settled terms (converged), after
    ``cap_i`` terms (``converged = False``), or with ``BudgetExceeded`` when
    it would need more than ``eval_cap`` terms.  A round evaluates the next
    terms of every running sum in one call of F, as many as ``tails`` takes
    blocks; the terms past a sum's stop are dropped.
    """
    k, caps = list(map(int, n0)), list(map(int, caps))
    if not all(c > 0 for c in caps):
        raise ValueError("cap must be positive")
    total, streak, terms, out = [0.0] * len(k), [0] * len(k), [0] * len(k), [None] * len(k)
    active = list(range(len(k)))
    ahead = min(window, 16)
    while active:
        for i in active:
            if terms[i] >= eval_cap:
                out[i] = BudgetExceeded(f"evaluation cap {eval_cap} reached")
        active = [i for i in active if out[i] is None]
        if not active:
            break
        plan = [(i, k[i] + j) for i in active for j in range(min(ahead, caps[i] - terms[i], eval_cap - terms[i]))]
        values, over = evaluate(F, np.array([p[1] for p in plan], dtype=float), np.array([p[0] for p in plan]))
        for (i, n), term, raised in zip(plan, values.tolist(), over.tolist()):
            if out[i] is not None:
                continue  # past this sum's stop
            if not math.isfinite(term):
                out[i] = NonFinite(f"series term overflowed at n={n}" if raised else f"series term is {term} at n={n}")
                continue
            total[i] += term
            if not math.isfinite(total[i]):
                out[i] = NonFinite(f"series sum overflowed at n={n}")
                continue
            terms[i] += 1
            streak[i] = streak[i] + 1 if _settled(term, total[i], tol) else 0
            if streak[i] >= 3:
                out[i] = IntegralResult(total[i], 3.0 * tol / 10.0, True, terms[i], float(n))
                continue
            k[i] = n + 1
            if terms[i] >= caps[i]:
                out[i] = IntegralResult(total[i], 0.0, False, terms[i], float(k[i]))
        active = [i for i in active if out[i] is None]
        ahead = min(window, 2 * ahead)
    return out
