"""Deterministic integration and series summation for the criterion panel.

Finite intervals use adaptive-bisection Simpson quadrature.  Improper upper
limits are handled by integrating unit-length blocks until the last block
settles (converged) or a horizon cap is reached.  A block or series term
settles when it is below tol/10 or can no longer change the running total
(at most 2**-52 of it), so a tol below float resolution cannot keep a
converged tail running.
Hitting the cap is reported as ``converged = False`` with the partial value:
criteria interpret that as a divergence signal, never as an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, NonFinite

EVAL_CAP = 1_000_000
_EPS = 2.0 ** -52


@dataclass(frozen=True)
class IntegralResult:
    value: float
    abs_error_estimate: float
    converged: bool
    evaluations: int
    truncation_horizon: float


def integrate_finite(
    f, a: float, b: float, tol: float, eval_cap: int = EVAL_CAP, rel_tol: float = 1e-9
) -> IntegralResult:
    """Adaptive Simpson estimate of the integral of f over [a, b].

    The interval is bisected until each segment's Richardson error estimate
    fits within its proportional share of ``tol`` plus ``rel_tol`` of the
    segment value (the relative term lets integrands spanning hundreds of
    orders of magnitude terminate; absolute precision beyond float range is
    unattainable anyway).  Segments are accumulated left to right, so the
    result is bit-identical for identical inputs.
    """
    if not b >= a:
        raise ValueError(f"need b >= a, got a={a}, b={b}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if a == b:
        return IntegralResult(0.0, 0.0, True, 0, b)
    n = 0  # evaluations so far; the cap is checked before each one

    def g(x):
        nonlocal n
        if n >= eval_cap:
            raise BudgetExceeded(f"evaluation cap {eval_cap} reached")
        n += 1
        try:
            y = f(x)
        except OverflowError:
            raise NonFinite(f"integrand overflowed at x={x}")
        if not math.isfinite(y):
            raise NonFinite(f"integrand returned {y} at x={x}")
        return y

    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    if not math.isfinite(whole):
        raise NonFinite(f"integral overflowed on [{a}, {b}]")
    min_width = (b - a) * 1e-13
    total = 0.0
    err_total = 0.0
    stack = [(a, b, fa, fm, fb, whole, tol)]
    while stack:
        x0, x2, f0, f1, f2, s, seg_tol = stack.pop()
        mid = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + mid)
        rm = 0.5 * (mid + x2)
        flm, frm = g(lm), g(rm)
        sl = (mid - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        sr = (x2 - mid) / 6.0 * (f1 + 4.0 * frm + f2)
        s2 = sl + sr
        if not math.isfinite(s2):
            # f itself is finite but the quadrature sum left float range
            raise NonFinite(f"integral overflowed on [{x0}, {x2}]")
        err = abs(s2 - s) / 15.0
        if err <= seg_tol + rel_tol * abs(s2) or (x2 - x0) <= min_width:
            total += s2 + (s2 - s) / 15.0
            err_total += err
        else:
            half = 0.5 * seg_tol
            stack.append((mid, x2, f1, frm, f2, sr, half))
            stack.append((x0, mid, f0, flm, f1, sl, half))
    converged = err_total <= tol + rel_tol * abs(total)
    return IntegralResult(total, err_total, converged, n, b)


def _settled(part: float, total: float, tol: float) -> bool:
    """Whether a block or term is below tol/10 or too small to move the running total."""
    return abs(part) < tol / 10.0 or abs(part) <= _EPS * abs(total)


def integrate_tail(
    f,
    a: float,
    tol: float,
    horizon_cap: float,
    eval_cap: int = EVAL_CAP,
    block: float = 1.0,
) -> IntegralResult:
    """Integral of f over [a, inf), truncated adaptively.

    Blocks [a, a+1], [a+1, a+2], ... are integrated until the last block
    settles (converged; see the module notes), or the
    horizon cap is reached (``converged = False``; the partial integral is
    returned as a divergence signal).
    """
    if not horizon_cap > a:
        raise ValueError("horizon_cap must exceed the lower limit")
    n_blocks = max(1, math.ceil((horizon_cap - a) / block))
    block_tol = tol / (10.0 * n_blocks)
    total = 0.0
    err_total = 0.0
    evals = 0
    end = a
    converged = False
    while end < horizon_cap - 1e-12:
        nxt = min(end + block, horizon_cap)
        r = integrate_finite(f, end, nxt, block_tol, eval_cap - evals)
        evals += r.evaluations
        total += r.value
        err_total += r.abs_error_estimate
        end = nxt
        if not math.isfinite(total):
            raise NonFinite(f"tail integral overflowed by s={end}")
        if _settled(r.value, total, tol):
            converged = True
            err_total += abs(r.value)
            break
    return IntegralResult(total, err_total, converged, evals, end)


def sum_tail(f, n0: int, tol: float, cap: int) -> IntegralResult:
    """Partial sum of f(n0) + f(n0+1) + ... with small-term truncation.

    Stops after three consecutive settled terms (converged) or after
    ``cap`` terms (``converged = False``, divergence signal).
    """
    if not cap > 0:
        raise ValueError("cap must be positive")
    total = 0.0
    streak = 0
    k = n0
    terms = 0
    converged = False
    while terms < cap:
        try:
            term = float(f(k))
        except OverflowError:
            raise NonFinite(f"series term overflowed at n={k}")
        if not math.isfinite(term):
            raise NonFinite(f"series term is {term} at n={k}")
        total += term
        if not math.isfinite(total):
            raise NonFinite(f"series sum overflowed at n={k}")
        terms += 1
        if _settled(term, total, tol):
            streak += 1
            if streak >= 3:
                converged = True
                break
        else:
            streak = 0
        k += 1
    err = 3.0 * tol / 10.0 if converged else 0.0
    return IntegralResult(total, err, converged, terms, float(k))
