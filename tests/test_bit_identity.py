"""The array paths against their scalar definitions, bit for bit.

Floats are compared with ``struct.pack("d", ...)``, which tells -0.0 from
0.0.  The batched quadrature is checked against the depth-first adaptive
Simpson it replaced, kept here as the reference.
"""

import dataclasses
import io
import json
import math
import re
import struct
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow import gallery, nonuniform, uniform
from skewflow.cli import main
from skewflow.core import (
    ABSTRACT_REAL,
    NORMS,
    SHIFT_PARAMETER,
    LawReport,
    StatePoint,
    apply,
    check_cocycle_law,
    check_declarations,
    check_semiflow_law,
    combine_logs,
    vec_norm,
)
from skewflow.errors import BudgetExceeded, NonFinite, TimeOrderViolation
from skewflow.gauges import Gauge, make_gauge
from skewflow.probes import law_probes
from skewflow.quadrature import IntegralResult, series, simpson, tails

from conftest import apply_cocycle, translate


def bits(values):
    return [struct.pack("d", v) for v in np.asarray(values, dtype=float).ravel().tolist()]


# ---------------------------------------------------------------------------
# cocycles and the semiflow

_TIMES = st.one_of(st.floats(min_value=0.0, max_value=120.0), st.sampled_from([0.0, 1.0, 2.5, 6.0]))


def assert_cocycle_matches(cocycle, triples):
    """The array form on all triples at once equals log_diag on each."""
    t, s, x = zip(*triples)
    got = cocycle.log_diag_array(np.array(t), np.array(s), np.array([p.value for p in x]))
    for j, (tj, sj, xj) in enumerate(triples):
        assert bits(got[:, j]) == bits(cocycle.log_diag(tj, sj, xj)), (tj, sj, xj)


def ordered(pairs):
    return [(max(a, b), min(a, b)) for a, b in pairs]


@given(st.lists(st.tuples(_TIMES, _TIMES), min_size=1, max_size=12),
       st.lists(st.one_of(st.floats(min_value=-50.0, max_value=50.0), st.just(math.inf)), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_shift_parameter_cocycles(pairs, thetas):
    states = [StatePoint(SHIFT_PARAMETER, th) for th in thetas]
    for cocycle in (gallery.HumpIntegralCocycle((-1.0, 1.0, -3.0), 2.0), gallery.DecayingShiftCocycle(2.0)):
        if isinstance(cocycle, gallery.DecayingShiftCocycle):
            states = [x for x in states if x.value > -1.0] or [StatePoint(SHIFT_PARAMETER, math.inf)]
        triples = [(t, s, states[i % len(states)]) for i, (t, s) in enumerate(ordered(pairs))]
        assert_cocycle_matches(cocycle, triples)


@given(st.lists(st.tuples(_TIMES, _TIMES, st.floats(min_value=0.0, max_value=50.0)), min_size=1, max_size=12),
       st.floats(min_value=1.01, max_value=10.0))
@settings(max_examples=80, deadline=None)
def test_abstract_real_cocycles(triples, c):
    triples = [(max(a, b), min(a, b), StatePoint(ABSTRACT_REAL, u)) for a, b, u in triples]
    for cocycle in (gallery.BoundedRatioCocycle(c), gallery.OscillatingDecayCocycle()):
        assert_cocycle_matches(cocycle, triples)


def _spike_times(nodes):
    """Node times, window edges, points inside and just past each window, and sub-resolution offsets."""
    out = []
    for n in range(0, nodes + 2):
        w = math.exp(-float(n) ** 2)
        out += [float(n), n + w, n + w / 2.0, n + 2.0 * w, n + 0.5, n + 1e-17, max(0.0, n - 1e-12), (n + w) - n]
    return [v for v in out if v >= 0.0]


@pytest.mark.parametrize("nodes", range(1, 9))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_spike_cocycle(nodes, data):
    times = st.one_of(st.sampled_from(_spike_times(nodes)), _TIMES)
    pairs = data.draw(st.lists(st.tuples(times, times), min_size=1, max_size=16))
    x = StatePoint(ABSTRACT_REAL, 1.0)
    assert_cocycle_matches(gallery.SpikeCocycle(nodes), [(t, s, x) for t, s in ordered(pairs)])


_TERM = st.fixed_dictionaries({
    "kind": st.sampled_from(gallery.DeclarativeCocycle.KINDS),
    "coef": st.one_of(st.floats(min_value=-5.0, max_value=5.0), st.integers(-3, 3)),
})


@given(st.lists(st.lists(_TERM, min_size=0, max_size=4), min_size=1, max_size=4), st.data())
@settings(max_examples=80, deadline=None)
def test_declarative_cocycle_every_kind_with_scales(entries, data):
    scales = data.draw(st.one_of(st.none(), st.lists(
        st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.integers(1, 5)),
        min_size=len(entries), max_size=len(entries))))
    pairs = data.draw(st.lists(st.tuples(_TIMES, _TIMES), min_size=1, max_size=8))
    x = StatePoint(ABSTRACT_REAL, 0.0)
    assert_cocycle_matches(gallery.DeclarativeCocycle(entries, scales), [(t, s, x) for t, s in ordered(pairs)])


@given(st.lists(st.tuples(_TIMES, _TIMES, st.floats(min_value=-50.0, max_value=50.0)), min_size=1, max_size=12),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_translation_semiflow_moves_arrays(triples, real):
    triples = [(max(a, b), min(a, b), abs(v) if real else v) for a, b, v in triples]
    t, s, v = (np.array(c) for c in zip(*triples))
    got = gallery.TranslationSemiflow().move(t, s, v, np.full(v.size, real))
    assert bits(got) == bits([vi if ti == si else vi + (ti - si) for ti, si, vi in triples])


_DENSE = [
    gallery.HumpIntegralCocycle((-1.0, 1.0, -3.0), 2.0),
    gallery.DecayingShiftCocycle(2.0),
    gallery.BoundedRatioCocycle(2.0),
    gallery.OscillatingDecayCocycle(),
    gallery.SpikeCocycle(6),
    gallery.DeclarativeCocycle([[{"kind": k, "coef": 0.7} for k in gallery.DeclarativeCocycle.KINDS],
                                [{"kind": "tsin", "coef": -2}, {"kind": "log1p", "coef": 3}]], [2.0, 0.5]),
]


@pytest.mark.parametrize("cocycle", _DENSE, ids=lambda c: type(c).__name__)
def test_cocycles_on_a_dense_sample(cocycle):
    # about 1 input in 2,000 tells a vectorized transcendental from math's; 20,000 catch it
    rng = np.random.default_rng(20080410)
    s = rng.uniform(0.0, 8.0, 20000)
    t = s + rng.exponential(5.0, 20000)
    theta = rng.uniform(0.0, 6.0, 20000)
    if isinstance(cocycle, (gallery.HumpIntegralCocycle, gallery.DecayingShiftCocycle)):
        theta[::7] = math.inf
    kind = SHIFT_PARAMETER if not isinstance(cocycle, gallery.BoundedRatioCocycle) else ABSTRACT_REAL
    got = cocycle.log_diag_array(t, s, theta)
    want = [cocycle.log_diag(a, b, StatePoint(kind, c)) for a, b, c in zip(t.tolist(), s.tolist(), theta.tolist())]
    assert bits(got.T) == bits(want)


# ---------------------------------------------------------------------------
# the flow-law checks against the probe loops they replaced

def _ordered_pair(t, s):
    if not (t >= s >= 0.0):
        raise TimeOrderViolation(f"need t >= s >= 0, got t={t}, s={s}")


def _state_distance(a, b):
    return 0.0 if math.isinf(a.value) and math.isinf(b.value) else abs(a.value - b.value)


def reference_semiflow_law(system, probes):
    comp = ident = 0.0
    for t, s, t0, x, _ in probes:
        _ordered_pair(t, s)
        _ordered_pair(s, t0)
        comp = max(comp, _state_distance(translate(t, s, translate(s, t0, x)), translate(t, t0, x)))
        ident = max(ident, _state_distance(translate(t, t, x), x))
    return LawReport(comp, ident, len(probes))


def reference_cocycle_law(system, probes):
    comp = ident = 0.0
    for t, s, t0, x, v in probes:
        _ordered_pair(t, s)
        _ordered_pair(s, t0)
        step = apply_cocycle(system, s, t0, x, v)
        lhs = apply_cocycle(system, t, s, translate(s, t0, x), step)
        rhs = apply_cocycle(system, t, t0, x, v)
        denom = max(1.0, vec_norm(rhs, system.norm_choice))
        comp = max(comp, vec_norm(lhs - rhs, system.norm_choice) / denom)
        same = apply_cocycle(system, t, t, x, v)
        ident = max(ident, vec_norm(same - np.asarray(v, dtype=float), system.norm_choice))
    return LawReport(comp, ident, len(probes))


def reference_declarations(system, probes):
    def gap(p, q):
        a, b = (np.asarray(system.cocycle.log_diag(*r), dtype=float) for r in (p, q))
        return float(np.nan_to_num(np.where(a == b, 0.0, np.abs(a - b)), nan=np.inf, posinf=np.inf).max())

    shift = max((max(gap((t + t0, s + t0, x), (t, s, x)),
                     _state_distance(translate(t + t0, s + t0, x), translate(t, s, x)))
                 for t, s, t0, x, _ in probes), default=0.0) if system.time_invariant else None
    state = max((gap((t, s, x), (t, s, system.state_samples[0])) for t, s, _, x, _ in probes),
                default=0.0) if system.state_independent else None
    return shift, state


def law_outcomes(checks, system, probes):
    """Each check's result as bits, in the order given (axioms' order), up to the first error's text."""
    out = []
    for check in checks:
        try:
            with np.errstate(all="ignore"):
                r = check(system, probes)
        except Exception as exc:
            return out + [f"{type(exc).__name__}: {exc}"]
        values = dataclasses.astuple(r) if isinstance(r, LawReport) else r
        out.append([v if v is None or isinstance(v, int) else struct.pack("d", v) for v in values])
    return out


def assert_laws_match(system, probes):
    ordered = all(t >= s >= t0 >= 0.0 for t, s, t0, _, _ in probes)
    batch = [check_semiflow_law, check_cocycle_law, check_declarations]
    reference = [reference_semiflow_law, reference_cocycle_law, reference_declarations]
    assert law_outcomes(batch, system, probes) == law_outcomes(reference, system, probes)
    if ordered:  # the declarations on their own, also where the cocycle law overflowed
        assert law_outcomes(batch[2:], system, probes) == law_outcomes(reference[2:], system, probes)


_LAW_TIMES = st.one_of(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=1.7976931348623157e308),
                       st.sampled_from([0.0, 1.0, 2.0, 700.0, 1e3, 1e308, 1.7976931348623157e308]))
_BAD_TIMES = st.one_of(_LAW_TIMES, st.sampled_from([-1.0, -0.0, math.nan]))


@st.composite
def law_probes_for(draw, system):
    """Seeded law probes of the system, then injected ones: ordered, or (rarely) as drawn, nan and negatives too."""
    probes = law_probes(system, draw(st.integers(0, 40)), draw(st.integers(0, 2**32)))
    for _ in range(draw(st.integers(0, 6))):
        times = draw(st.tuples(_BAD_TIMES, _BAD_TIMES, _BAD_TIMES) if draw(st.integers(0, 19)) == 0 else
                     st.tuples(_LAW_TIMES, _LAW_TIMES, _LAW_TIMES).map(lambda c: sorted(c, reverse=True)))
        probes.insert(draw(st.integers(0, len(probes))), (*times, draw(st.sampled_from(system.state_samples)),
                                                          draw(st.sampled_from(system.vector_samples))))
    return probes


@pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_law_checks_match_the_probe_loops_on_the_gallery(name, data):
    system = gallery.build(name)
    assert_laws_match(system, data.draw(law_probes_for(system)))


_LAW_COEFS = st.one_of(st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=-1e308, max_value=1e308),
                       st.sampled_from([0.0, -0.0, 1000.0, -1000.0, 1e308, -1e308]), st.integers(-3, 3))
_LAW_TERM = st.fixed_dictionaries({"kind": st.sampled_from(gallery.DeclarativeCocycle.KINDS), "coef": _LAW_COEFS})


@given(st.lists(st.lists(_LAW_TERM, max_size=3), min_size=1, max_size=3), st.sampled_from(NORMS), st.data())
@settings(max_examples=150, deadline=None)
def test_law_checks_match_the_probe_loops_on_custom_systems(entries, norm, data):
    scales = data.draw(st.one_of(st.none(), st.lists(st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                                                               st.sampled_from([1.0, 1.5, 1e300])),
                                                     min_size=len(entries), max_size=len(entries))))
    spec = {"entries": entries, "norm": norm, "lag_max": data.draw(st.sampled_from([0.0, 6.0, 1024.0]))}
    system = gallery.build_custom(spec if scales is None else {**spec, "scales": scales})
    assert_laws_match(system, data.draw(law_probes_for(system)))


def test_law_checks_name_the_first_pair_out_of_order():
    # probe by probe, (t, s) before (s, t0): a later probe's bad (t, s) does not come first
    system = gallery.build("scalar_decay")
    x, v = system.state_samples[0], system.vector_samples[0]
    probes = [(3.0, 2.0, 1.0, x, v), (5.0, 4.0, 4.5, x, v), (1.0, 2.0, 0.0, x, v)]
    checks = [check_semiflow_law, check_cocycle_law, check_declarations]
    want = ["TimeOrderViolation: need t >= s >= 0, got t=4.0, s=4.5"]
    assert law_outcomes(checks, system, probes) == want
    assert law_outcomes([reference_semiflow_law], system, probes) == want


def test_law_checks_on_no_probes():
    system = gallery.build("diag3")
    assert law_outcomes([check_semiflow_law, check_cocycle_law, check_declarations], system, []) == [
        [struct.pack("d", 0.0)] * 2 + [0], [struct.pack("d", 0.0)] * 2 + [0], [struct.pack("d", 0.0), None]]


# ---------------------------------------------------------------------------
# log-space norms: one component against the general combine

def reference_combine_logs(norm, terms):
    """combine_logs as it was before its one-row branch: every row count takes this path."""
    shape = terms.shape[1:]
    terms = terms.reshape(len(terms), -1)
    rows = list(terms)
    if norm is None:
        m = rows[0]
        for r in rows[1:]:
            m = np.where(r > m, r, m)
        return m.reshape(shape)
    keep = [r != -math.inf for r in rows]
    m = np.where(keep[0], rows[0], 0.0)
    have = keep[0]
    for r, k in zip(rows[1:], keep[1:]):
        m = np.where(k & (~have | (r > m)), r, m)
        have = have | k
    if norm == "Linf":
        return np.where(have, m, -math.inf).reshape(shape)
    scale = 1.0 if norm == "L1" else 2.0
    acc = 0.0
    for r, k in zip(rows, keep):
        z = scale * (r - m)
        e = k.astype(float)
        at = k & (z != 0.0)
        if at.any():
            e[at] = apply(math.exp, z[at])
        acc = acc + e
    acc = np.where(have, acc, 1.0)
    lg = np.zeros(acc.shape)
    at = acc != 1.0
    if at.any():
        lg[at] = apply(math.log, acc[at])
    out = np.where(have, m + lg / scale, -math.inf)
    for i in np.flatnonzero(np.isnan(out)).tolist():
        finite = [t for t in terms[:, i].tolist() if t != -math.inf]
        mx = max(finite)
        out[i] = mx + math.log(sum([math.exp(scale * (t - mx)) for t in finite])) / scale
    return out.reshape(shape)


_NEG_NAN = -np.float64(np.nan)
_EDGES = [-0.0, 0.0, -math.inf, math.inf, math.nan, _NEG_NAN, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308,
          -2.2e-308, 1.0, -745.5, 709.8]


@pytest.mark.parametrize("norm", ["L1", "L2", "Linf", None])
@pytest.mark.parametrize("row", [_EDGES, [v for v in _EDGES if v < math.inf], [-0.0, -math.inf, 0.0]])
def test_one_row_combine_is_the_general_combine(norm, row):
    for shape in ((1, len(row)), (1, 1, len(row))):
        terms = np.array(row, dtype=float).reshape(shape)
        with np.errstate(all="ignore"):
            got, want = combine_logs(norm, terms), reference_combine_logs(norm, terms.copy())
        assert got.shape == want.shape == shape[1:]
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_EDGES)),
                min_size=1, max_size=24))
@settings(max_examples=200, deadline=None)
def test_one_row_combine_on_any_floats(row):
    terms = np.array([row], dtype=float)
    for norm in ("L1", "L2", "Linf", None):
        with np.errstate(all="ignore"):
            got, want = combine_logs(norm, terms), reference_combine_logs(norm, terms.copy())
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# ---------------------------------------------------------------------------
# gauges

_GAUGES = [make_gauge(d) for d in ("identity", "pow:2", "pow:1.5", "sat:1", "sat:3")] + [
    Gauge("table", nodes=((0.0, 1.0, 5.0, 40.0), (0.0, 0.5, 2.0, 3.0)))]


@pytest.mark.parametrize("gauge", _GAUGES, ids=lambda g: g.describe())
@given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e300), st.sampled_from([0.0, 1.0, 1e200, math.inf])),
                min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_array_gauge_is_bit_identical(gauge, values):
    """Equal values, or an OverflowError from both forms."""
    try:
        want = [gauge(v) for v in values]
    except OverflowError:
        with pytest.raises(OverflowError):
            gauge.array(np.array(values))
        return
    with np.errstate(all="ignore"):
        got = gauge.array(np.array(values))
    assert bits(got) == bits(want)


@pytest.mark.parametrize("gauge", _GAUGES, ids=lambda g: g.describe())
def test_gauges_on_a_dense_sample(gauge):
    values = np.random.default_rng(7).exponential(50.0, 20000)
    assert bits(gauge.array(values)) == bits([gauge(v) for v in values.tolist()])


# ---------------------------------------------------------------------------
# quadrature against the depth-first reference

def reference_simpson(f, a, b, tol, eval_cap, rel_tol=1e-9):
    """Adaptive Simpson, depth first with an explicit stack: the scalar kernel the batch replaced."""
    if a == b:
        return IntegralResult(0.0, 0.0, True, 0, b)
    n = 0

    def g(x):
        nonlocal n
        if n >= eval_cap:
            raise BudgetExceeded(f"evaluation cap {eval_cap} reached")
        n += 1
        return f(x)

    fa, fb = g(a), g(b)
    fm = g(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    min_width = (b - a) * 1e-13
    total = err_total = 0.0
    stack = [(a, b, fa, fm, fb, whole, tol)]
    while stack:
        x0, x2, f0, f1, f2, s, seg_tol = stack.pop()
        mid = 0.5 * (x0 + x2)
        flm, frm = g(0.5 * (x0 + mid)), g(0.5 * (mid + x2))
        sl = (mid - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        sr = (x2 - mid) / 6.0 * (f1 + 4.0 * frm + f2)
        s2 = sl + sr
        err = abs(s2 - s) / 15.0
        if err <= seg_tol + rel_tol * abs(s2) or (x2 - x0) <= min_width:
            total += s2 + (s2 - s) / 15.0
            err_total += err
        else:
            stack.append((mid, x2, f1, frm, f2, sr, 0.5 * seg_tol))
            stack.append((x0, mid, f0, flm, f1, sl, 0.5 * seg_tol))
    return IntegralResult(total, err_total, err_total <= tol + rel_tol * abs(total), n, b)


def reference_tail(f, a, tol, horizon_cap, eval_cap):
    """Unit blocks integrated one at a time until one settles or the horizon is reached."""
    block_tol = tol / (10.0 * max(1, math.ceil(horizon_cap - a)))
    total = err_total = 0.0
    evals = 0
    end = a
    while end < horizon_cap - 1e-12:
        nxt = min(end + 1.0, horizon_cap)
        r = reference_simpson(f, end, nxt, block_tol, eval_cap - evals)
        evals += r.evaluations
        total += r.value
        err_total += r.abs_error_estimate
        end = nxt
        if abs(r.value) < tol / 10.0 or abs(r.value) <= 2.0 ** -52 * abs(total):
            return IntegralResult(total, err_total + abs(r.value), True, evals, end)
    return IntegralResult(total, err_total, False, evals, end)


def reference_sum(f, n0, tol, cap):
    total, streak, k, terms = 0.0, 0, n0, 0
    while terms < cap:
        term = f(k)
        total += term
        terms += 1
        if abs(term) < tol / 10.0 or abs(term) <= 2.0 ** -52 * abs(total):
            streak += 1
            if streak >= 3:
                return IntegralResult(total, 3.0 * tol / 10.0, True, terms, float(k))
        else:
            streak = 0
        k += 1
    return IntegralResult(total, 0.0, False, terms, float(k))


def outcome(run):
    try:
        r = run()
    except (BudgetExceeded, NonFinite) as exc:
        return type(exc).__name__, str(exc)
    return outcome_of(r)


def outcome_of(r):
    if isinstance(r, Exception):
        return type(r).__name__, str(r)
    return bits([r.value, r.abs_error_estimate, r.truncation_horizon]), r.converged, r.evaluations


_INTEGRAND = st.tuples(
    st.floats(min_value=-3.0, max_value=3.0),    # amplitude
    st.floats(min_value=0.0, max_value=40.0),    # frequency
    st.floats(min_value=-1.0, max_value=2.0),    # decay rate
    st.floats(min_value=0.0, max_value=0.99),    # depth of a kink at x = 2
)


def integrand(params):
    amp, freq, rate, kink = params
    return lambda x: math.exp(-rate * x) * (1.0 + amp * math.sin(freq * x)) + kink * abs(x - 2.0) ** 0.5


def batch(fs):
    """The array integrand that evaluates fs[k] at each of its points."""
    return lambda x, k: np.array([fs[ki](xi) for xi, ki in zip(x.tolist(), k.tolist())])


@given(st.lists(st.tuples(_INTEGRAND, st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=6.0),
                          st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]), st.integers(0, 3000)),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_batched_simpson_matches_the_depth_first_reference(cases):
    fs = [integrand(p) for p, *_ in cases]
    a = [lo for _, lo, _, _, _ in cases]
    b = [lo + w for _, lo, w, _, _ in cases]
    tol = [t for *_, t, _ in cases]
    caps = [c for *_, c in cases]
    got = simpson(batch(fs), a, b, tol, caps)
    for f, ai, bi, ti, ci, r in zip(fs, a, b, tol, caps, got):
        assert outcome_of(r) == outcome(lambda: reference_simpson(f, ai, bi, ti, ci))


@given(st.lists(st.tuples(_INTEGRAND, st.floats(min_value=0.0, max_value=6.0), st.sampled_from([3.0, 20.0, 100.0]),
                          st.integers(0, 20000)), min_size=1, max_size=5),
       st.sampled_from([1, 4, 64]))
@settings(max_examples=40, deadline=None)
def test_batched_tails_match_one_block_at_a_time(cases, window):
    fs = [integrand(p) for p, *_ in cases]
    a = [lo for _, lo, _, _ in cases]
    horizons = [lo + h for _, lo, h, _ in cases]
    for j, (f, ai, hi, (*_, cap)) in enumerate(zip(fs, a, horizons, cases)):
        got = tails(batch(fs[j:j + 1]), [ai], [hi], 1e-6, cap, window=window)[0]
        assert outcome_of(got) == outcome(lambda: reference_tail(f, ai, 1e-6, hi, cap))


@given(st.lists(st.tuples(st.floats(min_value=0.05, max_value=2.0), st.integers(0, 5), st.integers(1, 200)),
                min_size=1, max_size=6), st.sampled_from([1, 4, 64]))
@settings(max_examples=60, deadline=None)
def test_batched_series_match_term_by_term(cases, window):
    fs = [(lambda rate: lambda k: math.exp(-rate * k) + 1.0 / (k + 1) ** 3)(r) for r, _, _ in cases]
    got = series(batch([(lambda f: lambda x: f(int(x)))(f) for f in fs]), [n for _, n, _ in cases], 1e-6,
                 [c for *_, c in cases], window=window)
    for f, (_, n0, cap), r in zip(fs, cases, got):
        assert outcome_of(r) == outcome(lambda: reference_sum(f, n0, 1e-6, cap))


# ---------------------------------------------------------------------------
# a cocycle that exposes only log_diag is served by mapping it

class _OnlyLogDiag:
    def __init__(self, log_diag):
        self.log_diag = log_diag


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(list(argv))
    return _TIMESTAMP.sub('"timestamp": ""', buf.getvalue())


# what perfbench's traced run does: each built system gets a log_diag-only cocycle, so a
# report must not depend on anything else the cocycle carries (time invariance is the
# system's declaration, not the cocycle's)
@pytest.mark.parametrize("argv", [("classify", "--system", name) for name in gallery.GALLERY_NAMES] + [
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2"),
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2", "--eval-cap", "2000"),
], ids=lambda argv: argv[2] if argv[0] == "classify" else " ".join(argv))
def test_a_cocycle_with_only_log_diag_gives_the_same_report(monkeypatch, argv):
    expected = run(argv)
    build = gallery.build

    def wrapped(*args, **kwargs):
        system = build(*args, **kwargs)
        return dataclasses.replace(system, cocycle=_OnlyLogDiag(system.cocycle.log_diag))

    monkeypatch.setattr(gallery, "build", wrapped)
    assert run(argv) == expected


# ---------------------------------------------------------------------------
# a state-independent system shares its integrals between states without moving a byte

def _undeclared(build):
    return lambda *args, **kwargs: dataclasses.replace(build(*args, **kwargs), state_independent=False)


def run_undeclared(argv):
    """The report of ``argv`` with every built system's state-independence declaration withdrawn."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gallery, "build", _undeclared(gallery.build))
        mp.setattr(gallery, "build_custom", _undeclared(gallery.build_custom))
        return run(argv)


@pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
def test_the_declaration_leaves_every_gallery_report_as_it_was(name):
    argv = ("classify", "--system", name)
    assert run(argv) == run_undeclared(argv)


_SMALL_TERM = st.fixed_dictionaries({
    "kind": st.sampled_from(gallery.DeclarativeCocycle.KINDS),
    "coef": st.one_of(st.floats(min_value=-2.0, max_value=2.0), st.integers(-2, 1)),
})


@given(entries=st.lists(st.lists(_SMALL_TERM, min_size=1, max_size=3), min_size=1, max_size=2),
       norm=st.sampled_from(("L1", "L2", "Linf")))
@settings(max_examples=8, deadline=None)
def test_the_declaration_leaves_custom_reports_as_they_were(tmp_path_factory, entries, norm):
    path = tmp_path_factory.mktemp("spec") / "custom.json"  # a shorter tail cap keeps an example near a second
    path.write_text(json.dumps({"custom_system": {"entries": entries, "norm": norm, "tail_cap": 30.0}}))
    argv = ("classify", "--config", str(path))
    assert run(argv) == run_undeclared(argv)


# ---------------------------------------------------------------------------
# batching every integral a criterion expects to read, at its own weight and its partner's, moves no byte

_DATA = Path(__file__).resolve().parent / "data"


def _alone(kernel):
    """``kernel`` with no expectation: each run computes its own weight only, in batches of 1, 2, 4, ..."""
    return lambda *args, **kwargs: kernel(*args, **dict(kwargs, expect=None))


def run_doubling(argv):
    """The report of ``argv`` with every integral computed in batches of 1, 2, 4, ..., as if no pass were expected.

    Neither decay fit sizes a batch, and no batch computes a further weight's
    integrals: each kernel run computes its own weight's alone.
    """
    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((uniform, "forward_tails"), (uniform, "backward_integrals"),
                             (nonuniform, "backward_integrals")):
            mp.setattr(module, name, _alone(getattr(uniform, name)))
        return run(argv)


@pytest.mark.parametrize("argv", [("classify", "--system", name) for name in gallery.GALLERY_NAMES] + [
    ("classify", "--config", str(path)) for path in sorted(_DATA.glob("*.json"))] + [
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2"),
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2", "--eval-cap", "2000"),
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-4"),
], ids=lambda argv: " ".join(Path(a).name for a in argv[1:]))
def test_the_batch_sizes_leave_every_report_as_it_was(argv):
    assert run(argv) == run_doubling(argv)
