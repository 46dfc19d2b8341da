"""Flow primitives: laws, adjoints, operator norms, spectral shift."""

import itertools
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow.core import (
    ABSTRACT_REAL,
    SHIFT_PARAMETER,
    StatePoint,
    apply_cocycle,
    check_cocycle_law,
    check_semiflow_law,
    cocycle_matrix,
    dual_norm,
    vec_norm,
)
from skewflow.errors import InvalidParams, NonFinite, TimeOrderViolation
from skewflow.probes import law_probes

from conftest import (
    apply_adjoint,
    exponential_system,
    log_combiner,
    log_norm_path,
    log_vector_norm,
    operator_norm,
    shift_cocycle,
)


def state(v, kind=ABSTRACT_REAL):
    return StatePoint(kind, v)


class TestApplyCocycle:
    def test_scalar_decay_closed_form(self, systems):
        s = systems["scalar_decay"]
        v = apply_cocycle(s, 1.0, 0.0, StatePoint(SHIFT_PARAMETER, 0.0), (1.0,))
        # e^{-2h}(1+h) at h=1, confirmed against the quadrature oracle below
        assert v[0] == pytest.approx(2.0 * math.exp(-2.0), abs=1e-12)

    def test_equal_times_is_identity(self, systems):
        for s in systems.values():
            x = s.state_samples[0]
            v = s.vector_samples[0]
            out = apply_cocycle(s, 3.0, 3.0, x, v)
            assert np.allclose(out, v, atol=0.0)

    def test_tsint_value(self, systems):
        s = systems["tsint"]
        v = apply_cocycle(s, math.pi, 0.0, state(0.0), (1.0,))
        assert v[0] == pytest.approx(math.exp(-2.0 * math.pi), rel=1e-12)

    def test_time_order_enforced(self, systems):
        s = systems["scalar_decay"]
        with pytest.raises(TimeOrderViolation):
            apply_cocycle(s, 1.0, 2.0, s.state_samples[0], (1.0,))

    def test_log_norm_path_checks_time_order_on_every_call(self, systems):
        s = systems["diag3"]
        x = s.state_samples[0]
        log_norm = log_norm_path(s, s.vector_samples[0])
        assert log_norm(2.0, 1.0, x) == log_vector_norm(s, 2.0, 1.0, x, s.vector_samples[0])
        with pytest.raises(TimeOrderViolation):
            log_norm(1.0, 2.0, x)

    def test_overflow_is_nonfinite(self):
        grow = exponential_system(8.0)
        with pytest.raises(NonFinite):
            apply_cocycle(grow, 100.0, 0.0, grow.state_samples[0], (1.0,))


class TestLaws:
    def test_all_gallery_systems_pass_laws(self, systems):
        for name, s in systems.items():
            probes = law_probes(s, 200, seed=1234)
            semi = check_semiflow_law(s, probes)
            coc = check_cocycle_law(s, probes)
            assert semi.max_composition_dev <= 1e-9, name
            assert semi.max_identity_dev <= 1e-9, name
            assert coc.max_composition_dev <= 1e-9, name
            assert coc.max_identity_dev <= 1e-9, name

    def test_translation_semiflow_example(self, systems):
        s = systems["bounded_ratio"]
        mid = s.semiflow(2.0, 1.0, state(5.0))
        out = s.semiflow(3.0, 2.0, mid)
        assert out.value == 7.0
        assert s.semiflow(3.0, 1.0, state(5.0)).value == 7.0

    def test_time_order_in_probes(self, systems):
        s = systems["scalar_decay"]
        with pytest.raises(TimeOrderViolation):
            check_semiflow_law(s, [(1.0, 2.0, 0.0, s.state_samples[0])])


class TestShift:
    def test_zero_shift_is_identity(self, systems):
        s = systems["bounded_ratio"]
        shifted = shift_cocycle(s, 0.0)
        for t, sl in [(2.0, 1.0), (5.5, 0.0)]:
            a = cocycle_matrix(s, t, sl, s.state_samples[1])
            b = cocycle_matrix(shifted, t, sl, s.state_samples[1])
            assert np.allclose(a, b, rtol=0.0, atol=0.0)

    def test_pure_exponential_value(self):
        base = exponential_system(-1.0)
        shifted = shift_cocycle(base, 1.0)
        m = cocycle_matrix(shifted, 1.0, 0.0, base.state_samples[0])
        assert m[0, 0] == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_composition_law(self, systems):
        for name in ("scalar_decay", "diag3", "spike"):
            s = systems[name]
            ab = shift_cocycle(shift_cocycle(s, 0.4), 0.35)
            once = shift_cocycle(s, 0.75)
            for t, sl in [(1.0, 0.0), (7.5, 3.0), (12.0, 2.5)]:
                for x in s.state_samples:
                    a = cocycle_matrix(ab, t, sl, x)
                    b = cocycle_matrix(once, t, sl, x)
                    assert np.allclose(a, b, rtol=1e-12, atol=1e-300), name

    def test_shifted_system_still_satisfies_laws(self, systems):
        shifted = shift_cocycle(systems["bounded_ratio"], -0.1)
        probes = law_probes(shifted, 100, seed=7)
        rep = check_cocycle_law(shifted, probes)
        assert rep.max_composition_dev <= 1e-9

    def test_ground_truth_cleared(self, systems):
        assert shift_cocycle(systems["scalar_decay"], 0.5).ground_truth is None


class TestAdjoint:
    def test_scalar_adjoint_equals_cocycle(self, systems):
        s = systems["scalar_decay"]
        x = s.state_samples[0]
        a = apply_adjoint(s, 2.0, 0.5, x, (1.0,))
        b = apply_cocycle(s, 2.0, 0.5, x, (1.0,))
        assert a[0] == b[0]

    def test_diag_adjoint_is_itself(self, systems):
        s = systems["diag3"]
        x = s.state_samples[0]
        vstar = (1.0, -1.0, 0.5)
        out = apply_adjoint(s, 2.0, 1.0, x, vstar)
        m = cocycle_matrix(s, 2.0, 1.0, x)
        assert np.allclose(out, np.diag(m) * np.asarray(vstar), rtol=1e-15)

    def test_pairing_identity_random_matrices(self):
        rng = random.Random(42)
        for _ in range(200):
            a = np.array([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)])
            v = np.array([rng.uniform(-2, 2) for _ in range(2)])
            vs = np.array([rng.uniform(-2, 2) for _ in range(2)])
            lhs = float((a.T @ vs) @ v)
            rhs = float(vs @ (a @ v))
            assert abs(lhs - rhs) <= 1e-12

    def test_pairing_identity_on_gallery(self, systems):
        rng = random.Random(99)
        for name, s in systems.items():
            for _ in range(200):
                t0 = rng.uniform(0, 3)
                t = t0 + rng.uniform(0, 4)
                x = rng.choice(s.state_samples)
                v = np.array(rng.choice(s.vector_samples))
                vs = np.array(rng.choice(s.dual_samples))
                lhs = float(apply_adjoint(s, t, t0, x, vs) @ v)
                rhs = float(vs @ apply_cocycle(s, t, t0, x, v))
                assert abs(lhs - rhs) <= 1e-12, name


class TestOperatorNorm:
    def test_diagonal_max_entry(self, systems):
        s = systems["diag3"]
        x = s.state_samples[0]
        m = cocycle_matrix(s, 2.0, 1.0, x)
        assert operator_norm(s, 2.0, 1.0, x) == pytest.approx(np.max(np.abs(np.diag(m))), rel=1e-14)

    def test_upper_bound_on_sampled_vectors(self, systems):
        for name, s in systems.items():
            for t, sl in [(1.5, 0.5), (4.0, 2.0)]:
                for x in s.state_samples:
                    bound = operator_norm(s, t, sl, x)
                    for v in s.vector_samples:
                        out = apply_cocycle(s, t, sl, x, v)
                        assert vec_norm(out, s.norm_choice) <= bound * vec_norm(v, s.norm_choice) + 1e-12, name


class TestLogNorms:
    def test_log_matches_direct_at_moderate_scale(self, systems):
        for name, s in systems.items():
            for t, sl in [(1.0, 0.0), (6.0, 2.5)]:
                for x in s.state_samples:
                    for v in s.vector_samples:
                        direct = vec_norm(apply_cocycle(s, t, sl, x, v), s.norm_choice)
                        lg = log_vector_norm(s, t, sl, x, v)
                        assert lg == pytest.approx(math.log(direct), abs=1e-10), name

    def test_log_survives_underflow(self):
        s = exponential_system(-2.0)
        lg = log_vector_norm(s, 1000.0, 0.0, s.state_samples[0], (1.0,))
        assert lg == pytest.approx(-2000.0, rel=1e-12)


class TestStatePoint:
    def test_negative_abstract_real_rejected(self):
        with pytest.raises(InvalidParams):
            StatePoint(ABSTRACT_REAL, -1.0)

    def test_shift_parameter_any_real(self):
        StatePoint(SHIFT_PARAMETER, -5.0)
        StatePoint(SHIFT_PARAMETER, math.inf)


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_vector_norm_positive_definite(comps):
    for norm in ("L1", "L2", "Linf"):
        n = vec_norm(comps, norm)
        assert n >= 0.0
        assert (n == 0.0) == all(c == 0.0 for c in comps)


@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=2),
    st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_dual_pairing_bound(vstar, v):
    # |<v*, v>| <= ||v*||_dual ||v|| for every norm choice
    pair = abs(sum(a * b for a, b in zip(vstar, v)))
    for norm in ("L1", "L2", "Linf"):
        assert pair <= dual_norm(vstar, norm) * vec_norm(v, norm) + 1e-12


def reference_combine_logs(norm, terms):
    """log of a vector norm from the logs of the component magnitudes, by max-shifted log-sum-exp."""
    finite = [t for t in terms if t != float("-inf")]
    if not finite:
        return float("-inf")
    if norm == "Linf":
        return max(finite)
    scale = 1.0 if norm == "L1" else 2.0
    m = max(finite)
    acc = sum(math.exp(scale * (t - m)) for t in finite)
    return m + math.log(acc) / scale


def reference_log_abs(c):
    return math.log(abs(c)) if c != 0.0 else float("-inf")


_LOG_TERMS = st.one_of(
    st.floats(min_value=-800.0, max_value=800.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("-inf"), float("inf"), float("nan"), 0.0, -0.0]),
)
_COMPONENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)
_SPECIAL_LOGS = (float("-inf"), float("inf"), float("nan"), -0.0, 0.0, 1.5, -745.0, 800.0)
_SPECIAL_COMPONENTS = (0.0, -0.0, 1.0, -2.5, 1e-300)


def assert_bit_identical(norm, g, w):
    # struct.pack tells -0.0 from 0.0 and one nan payload from another
    expected = reference_combine_logs(norm, [gi + reference_log_abs(wi) for gi, wi in zip(g, w)])
    got = log_combiner(norm, w)(g)
    assert struct.pack("d", got) == struct.pack("d", expected), (norm, g, w, got, expected)


@pytest.mark.parametrize("norm", ("L1", "L2", "Linf"))
@pytest.mark.parametrize("dim", range(1, 9))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_log_combiner_is_bit_identical_to_the_reference(norm, dim, data):
    g = data.draw(st.lists(_LOG_TERMS, min_size=dim, max_size=dim), label="g")
    w = data.draw(st.lists(_COMPONENTS, min_size=dim, max_size=dim), label="w")
    assert_bit_identical(norm, g, w)


@pytest.mark.parametrize("norm", ("L1", "L2", "Linf"))
def test_log_combiner_on_every_pairing_of_special_values(norm):
    for dim in (1, 2):
        for g in itertools.product(_SPECIAL_LOGS, repeat=dim):
            for w in itertools.product(_SPECIAL_COMPONENTS, repeat=dim):
                assert_bit_identical(norm, list(g), w)
