"""Quadrature kernels against closed-form oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from skewflow.errors import BudgetExceeded, NonFinite
from skewflow.quadrature import _SLICE, simpson

from conftest import integrate_finite, integrate_tail, sum_tail
from test_bit_identity import batch, integrand, outcome, outcome_of, reference_simpson


def test_constant_one():
    r = integrate_finite(lambda t: 1.0, 0.0, 1.0, 1e-10)
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_exp_decay_truncated_at_20():
    # closed-form antiderivative: 1 - e^-20
    r = integrate_finite(math.exp if False else (lambda t: math.exp(-t)), 0.0, 20.0, 1e-8)
    assert r.converged
    assert abs(r.value - 0.9999999979388464) <= 1e-8


def test_sin_over_half_period():
    r = integrate_finite(math.sin, 0.0, math.pi, 1e-8)
    assert r.converged
    assert abs(r.value - 2.0) <= 1e-7


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_exponential_oracles(nu):
    # exact value (1 - e^{-5 nu}) / nu on [0, 5]
    tol = 1e-9
    r = integrate_finite(lambda t: math.exp(-nu * t), 0.0, 5.0, tol)
    exact = (1.0 - math.exp(-5.0 * nu)) / nu
    assert abs(r.value - exact) <= 10 * tol


@pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.5, 0.25), (2.0, -3.0, 1.0, 4.0)])
def test_cubic_oracles(coeffs):
    a, b, c, d = coeffs
    f = lambda t: a + b * t + c * t * t + d * t ** 3
    exact = a + b / 2.0 + c / 3.0 + d / 4.0
    r = integrate_finite(f, 0.0, 1.0, 1e-10)
    assert abs(r.value - exact) <= 1e-9


def test_tail_exponential():
    r = integrate_tail(lambda s: math.exp(-s), 0.0, 1e-6, 100.0)
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-6


def test_tail_zero():
    r = integrate_tail(lambda s: 0.0, 0.0, 1e-8, 100.0)
    assert r.converged
    assert r.value == 0.0


def test_tail_divergence_signal():
    r = integrate_tail(lambda s: 0.6, 0.0, 1e-6, 100.0)
    assert not r.converged
    assert r.value == pytest.approx(60.0, rel=1e-6)
    assert r.truncation_horizon == pytest.approx(100.0)


def test_tail_monotone_in_horizon():
    values = []
    for cap in (10.0, 20.0, 40.0, 80.0):
        r = integrate_tail(lambda s: 1.0 / (1.0 + s), 0.0, 1e-9, cap)
        values.append(r.value)
    assert values == sorted(values)


def test_sum_geometric():
    r = sum_tail(lambda k: math.exp(-k), 0, 1e-6, 10000)
    assert r.converged
    assert abs(r.value - 1.5819767068693265) <= 1e-6


def test_sum_zero():
    r = sum_tail(lambda k: 0.0, 0, 1e-8, 100)
    assert r.converged
    assert r.value == 0.0


def test_sum_harmonic_divergence():
    r = sum_tail(lambda k: 1.0 / (k + 1), 0, 1e-6, 10000)
    assert not r.converged
    assert r.value == pytest.approx(9.787606036044348, rel=1e-12)


def test_settles_when_terms_cannot_move_the_total():
    # tol/10 = 1e-301 is out of reach inside the horizon; the tails are still converged
    r = integrate_tail(lambda s: math.exp(-s), 0.0, 1e-300, 100.0)
    assert r.converged
    assert abs(r.value - 1.0) <= 1e-9
    r = sum_tail(lambda k: math.exp(-k), 0, 1e-300, 100)
    assert r.converged
    assert abs(r.value - 1.5819767068693265) <= 1e-12
    # a divergent series keeps terms far above 2**-52 of its total
    assert not sum_tail(lambda k: 1.0 / (k + 1), 0, 1e-300, 10000).converged


def test_converged_implies_error_within_tolerance():
    for tol in (1e-6, 1e-8, 1e-10):
        r = integrate_finite(lambda t: math.exp(-t), 0.0, 5.0, tol)
        if r.converged:
            assert r.abs_error_estimate <= tol + 1e-9 * abs(r.value)
    r = sum_tail(lambda k: math.exp(-k), 0, 1e-6, 1000)
    assert r.converged and r.abs_error_estimate <= 1e-6


def test_determinism_bit_identical():
    def f(t):
        return math.sin(3.0 * t) * math.exp(-0.25 * t) + 1.0 / (1.0 + t)

    a = integrate_finite(f, 0.0, 7.0, 1e-9)
    b = integrate_finite(f, 0.0, 7.0, 1e-9)
    assert (a.value, a.abs_error_estimate, a.evaluations) == (b.value, b.abs_error_estimate, b.evaluations)
    ta = integrate_tail(lambda s: math.exp(-0.5 * s), 0.0, 1e-8, 50.0)
    tb = integrate_tail(lambda s: math.exp(-0.5 * s), 0.0, 1e-8, 50.0)
    assert (ta.value, ta.evaluations) == (tb.value, tb.evaluations)


def test_nonfinite_integrand_raises():
    with pytest.raises(NonFinite):
        integrate_finite(lambda t: float("nan"), 0.0, 1.0, 1e-6)
    with pytest.raises(NonFinite):
        integrate_tail(lambda s: math.exp(s), 0.0, 1e-6, 1000.0)  # overflows near 710
    with pytest.raises(NonFinite):
        sum_tail(lambda k: float("inf"), 0, 1e-6, 10)


def test_budget_cap():
    with pytest.raises(BudgetExceeded):
        integrate_finite(lambda t: math.sin(1.0 / (t + 1e-9)), 0.0, 1.0, 1e-14, eval_cap=200)


class TestSeriesBudget:
    """A series term counts as one evaluation against the evaluation cap."""

    def test_a_sum_that_settles_within_the_cap_is_unchanged(self):
        full = sum_tail(lambda k: math.exp(-k), 0, 1e-6, 100)
        assert sum_tail(lambda k: math.exp(-k), 0, 1e-6, 100, eval_cap=full.evaluations) == full

    def test_a_sum_that_needs_more_terms_than_the_cap_runs_out_of_budget(self):
        seen = []
        full = sum_tail(lambda k: math.exp(-k), 0, 1e-6, 100)
        with pytest.raises(BudgetExceeded):
            sum_tail(lambda k: seen.append(k) or math.exp(-k), 0, 1e-6, 100, eval_cap=full.evaluations - 1)
        assert len(seen) == full.evaluations - 1  # no term past the cap is evaluated
        with pytest.raises(BudgetExceeded):
            sum_tail(lambda k: seen.append(k) or 1.0, 0, 1e-6, 100, eval_cap=0)
        assert len(seen) == full.evaluations - 1

    def test_the_term_cap_comes_before_the_budget(self):
        r = sum_tail(lambda k: 1.0 / (k + 1), 0, 1e-6, 50, eval_cap=50)
        assert not r.converged and r.evaluations == 50


def _recording(f):
    """f, and the list of the points it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def _wiggle(t):
    return math.exp(-t) * (2.0 + math.sin(5.0 * t))


class TestBudgetBoundary:
    """The evaluation cap is checked before each evaluation, and only then is f called."""

    def test_cap_equal_to_the_need_succeeds_and_one_less_fails(self):
        need = integrate_finite(_wiggle, 0.0, 3.0, 1e-10).evaluations
        assert need > 20
        r = integrate_finite(_wiggle, 0.0, 3.0, 1e-10, eval_cap=need)
        assert r.converged and r.evaluations == need
        g, calls = _recording(_wiggle)
        with pytest.raises(BudgetExceeded, match=rf"^evaluation cap {need - 1} reached$"):
            integrate_finite(g, 0.0, 3.0, 1e-10, eval_cap=need - 1)
        assert len(calls) == need - 1

    @pytest.mark.parametrize("bad, error", [
        (lambda x: float("nan"), r"^integrand returned nan at x=0\.75$"),
        (lambda x: math.exp(1000.0), r"^integrand overflowed at x=0\.75$"),
    ])
    def test_non_finite_value_before_the_cap_raises_non_finite(self, bad, error):
        # a, b, the midpoint, then the first quarter point: the fourth is the bad one
        def f(x):
            return bad(x) if x == 0.75 else 1.0 + x * x

        with pytest.raises(NonFinite, match=error):
            integrate_finite(f, 0.0, 3.0, 1e-10, eval_cap=4)
        with pytest.raises(BudgetExceeded, match=r"^evaluation cap 3 reached$"):
            integrate_finite(f, 0.0, 3.0, 1e-10, eval_cap=3)

    def test_tail_passes_the_remaining_budget_from_block_to_block(self):
        full = integrate_tail(_wiggle, 0.0, 1e-6, 100.0)
        need, blocks = full.evaluations, int(full.truncation_horizon)
        assert full.converged and blocks >= 3
        assert integrate_tail(_wiggle, 0.0, 1e-6, 100.0, eval_cap=need).evaluations == need
        g, calls = _recording(_wiggle)
        with pytest.raises(BudgetExceeded) as exc:
            integrate_tail(g, 0.0, 1e-6, 100.0, eval_cap=need - 1)
        assert len(calls) == need - 1
        # the last block starts with its left end; the blocks before it spent the rest
        spent = len(calls) - 1 - calls[::-1].index(float(blocks - 1))
        assert spent > 0
        assert str(exc.value) == f"evaluation cap {need - 1 - spent} reached"


def _checked(f):
    """f as the batched kernel judges its values: one not finite, or an OverflowError, is a NonFinite."""
    def g(x):
        try:
            v = f(x)
        except OverflowError:
            raise NonFinite(f"integrand overflowed at x={x}")
        if not math.isfinite(v):
            raise NonFinite(f"integrand returned {v} at x={x}")
        return v
    return g


class TestLevelStep:
    """Each shortcut of the batched level step against the depth-first reference, case by case.

    Every integrand here has at most one point that is not finite, so the
    depth-first order of evaluation meets the same first error as the
    level order.
    """

    @staticmethod
    def check(fs, a, b, tol, caps):
        got = simpson(batch(fs), a, b, tol, caps)
        want = [outcome(lambda: reference_simpson(_checked(f), *args)) for f, *args in zip(fs, a, b, tol, caps)]
        assert [outcome_of(r) for r in got] == want
        return want

    def test_a_budget_that_binds_within_a_level(self):
        # levels run whole until the one where the cap falls between two quarter points
        need = integrate_finite(_wiggle, 0.0, 3.0, 1e-10).evaluations
        caps = [need, need - 1, need - 5, need // 2, 4, 3, 2]
        want = self.check([_wiggle] * len(caps), [0.0] * len(caps), [3.0] * len(caps), [1e-10] * len(caps), caps)
        assert want[0][2] == need
        assert all(w[0] == "BudgetExceeded" for w in want[1:])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_value_at_one_quarter_point(self, bad):
        # 0.375 is a quarter point of the second level on [0, 3]
        def f(x):
            return bad if x == 0.375 else _wiggle(x)

        want = self.check([f, _wiggle, f], [0.0, 0.0, 1.0], [3.0, 3.0, 3.0], [1e-10] * 3, [10 ** 6] * 3)
        assert want[0] == ("NonFinite", f"integrand returned {bad} at x=0.375")
        assert want[1][2] > 0 and want[2][2] > 0

    def test_an_overflow_error_inside_a_batch(self):
        def raising(x):
            return math.exp(1000.0) if x == 0.375 else _wiggle(x)

        # no cap binds in the first batch; in the second, the sixth evaluation on [0, 3] is at 0.375
        want = self.check([_wiggle, raising, _wiggle], [0.0, 0.0, 0.5], [3.0] * 3, [1e-10] * 3, [10 ** 6] * 3)
        assert want[1] == ("NonFinite", "integrand overflowed at x=0.375")
        assert self.check([raising] * 2, [0.0] * 2, [3.0] * 2, [1e-10] * 2, [6, 5]) == [
            ("NonFinite", "integrand overflowed at x=0.375"), ("BudgetExceeded", "evaluation cap 5 reached")]

    def test_levels_that_accept_every_segment(self):
        # a cubic is exact on the first level; |x - 1/2| on [0, 1] splits once, then every half is exact
        cubic = lambda x: 2.0 - 3.0 * x + x * x + 4.0 * x ** 3
        kink = lambda x: abs(x - 0.5)
        want = self.check([cubic, kink, cubic, kink], [0.0, 0.0, -1.0, 0.0], [1.0, 1.0, 2.0, 1.0],
                          [1e-10] * 4, [10 ** 6, 10 ** 6, 10 ** 6, 6])
        assert [w[2] for w in want[:3]] == [5, 9, 5]
        assert want[3] == ("BudgetExceeded", "evaluation cap 6 reached")

    def test_a_batch_wider_than_a_slice(self):
        # easy and hard integrands mixed, so levels have pieces of many widths; a few run out of budget
        rng = np.random.default_rng(20080410)
        n = _SLICE + 44
        params = [(rng.uniform(-3, 3), rng.choice([0.0, 1.0, 20.0]), rng.uniform(-1, 2), rng.choice([0.0, 0.5]))
                  for _ in range(n)]
        fs = [integrand(p) for p in params]
        a = rng.uniform(0.0, 4.0, n).tolist()
        b = [lo + w for lo, w in zip(a, rng.uniform(0.0, 3.0, n).tolist())]
        caps = [int(c) for c in rng.choice([10 ** 6, 40, 200], n, p=[0.9, 0.05, 0.05])]
        want = self.check(fs, a, b, [1e-8] * n, caps)
        assert any(w[0] == "BudgetExceeded" for w in want)

    def test_an_integral_that_errs_while_the_others_go_on(self):
        g, calls = _recording(_wiggle)
        reference_simpson(g, 0.0, 3.0, 1e-10, 10 ** 6)
        deep = calls[200]

        def late(x):  # not finite at one point of a deep level
            return math.nan if x == deep else _wiggle(x)

        want = self.check([_wiggle, late, _wiggle, late, _wiggle], [0.0, 0.0, 1.0, 0.0, 0.0], [3.0] * 5,
                          [1e-10] * 5, [10 ** 6, 10 ** 6, 10 ** 6, 30, 10 ** 6])
        assert want[1] == ("NonFinite", f"integrand returned nan at x={deep}")
        assert want[3] == ("BudgetExceeded", "evaluation cap 30 reached")
        assert all(w[2] > 200 for w in want[0::2])


@given(st.floats(min_value=0.1, max_value=3.0), st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_exponential_tail_identity(nu, a):
    # integral over [a, inf) of e^{-nu s} is e^{-nu a} / nu
    r = integrate_tail(lambda s, nu=nu: math.exp(-nu * s), a, 1e-7, 200.0)
    assert r.converged
    assert abs(r.value - math.exp(-nu * a) / nu) <= 1e-6


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=4),
    st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_polynomial_against_antiderivative(coeffs, b):
    def f(t):
        return sum(c * t ** i for i, c in enumerate(coeffs))

    exact = sum(c * b ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))
    r = integrate_finite(f, 0.0, b, 1e-9)
    assert abs(r.value - exact) <= 1e-7 * max(1.0, abs(exact))
