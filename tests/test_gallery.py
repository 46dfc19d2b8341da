"""Gallery systems: formulas, bounds, tags, the declarative family."""

import math
import random

import pytest

from skewflow import gallery
from skewflow.core import SHIFT_PARAMETER, StatePoint, apply_cocycle
from skewflow.errors import InvalidParams

from conftest import integrate_finite, operator_norm


def test_gallery_names_and_tags(systems):
    tags = {name: s.ground_truth for name, s in systems.items()}
    assert tags == {
        "shift-metric-demo": "UES",
        "diag3": "UES",
        "scalar_decay": "UES",
        "bounded_ratio": "US-not-UES",
        "tsint": "ES",
        "spike": "ES-not-UES",
    }


def test_closed_form_exponents_match_quadrature_oracle(systems):
    # the decaying-shift exponent integral against direct quadrature
    s = systems["scalar_decay"]
    for theta in (0.0, 1.0, 2.5):
        for h in (0.5, 1.0, 3.0):
            got = s.cocycle.log_diag(h, 0.0, StatePoint(SHIFT_PARAMETER, theta))[0]
            base = integrate_finite(lambda u: 1.0 / (1.0 + theta + u), 0.0, h, 1e-12)
            assert got == pytest.approx(-2.0 * h + base.value, abs=1e-9)
    # the hump-base integral driving diag3
    d3 = systems["diag3"]
    for theta in (-2.0, 0.0, 1.5):
        got = d3.cocycle.base_integral(theta, 2.0)
        base = integrate_finite(lambda u: 2.0 + 1.0 / (1.0 + (theta + u) ** 2), 0.0, 2.0, 1e-12)
        assert got == pytest.approx(base.value, abs=1e-9)


def test_scalar_decay_closed_form_bound(systems):
    # ||Phi(t,s,x)|| <= e^{-(mu - x(0)) (t-s)} with mu=2, x(0)=1 at theta=0
    s = systems["scalar_decay"]
    count = 0
    for sl in [0.2 * k for k in range(25)]:
        for h in [0.5 * k for k in range(1, 21)]:
            for theta in (0.0, 1.0):
                x = StatePoint(SHIFT_PARAMETER, theta)
                val = operator_norm(s, sl + h, sl, x)
                assert val <= math.exp(-h) + 1e-9
                count += 1
    assert count >= 500


def test_tsint_closed_form_bound(systems):
    s = systems["tsint"]
    count = 0
    for sl in [0.25 * k for k in range(25)]:
        for h in [0.37 * k for k in range(1, 21)]:
            x = s.state_samples[0]
            val = operator_norm(s, sl + h, sl, x)
            assert val <= math.exp(2.0 * sl) * math.exp(-h) * (1.0 + 1e-9)
            count += 1
    assert count >= 500


def test_spike_node_values_exact(systems):
    s = systems["spike"]
    x = s.state_samples[0]
    for n in (1, 2, 3):
        t = n + math.exp(-float(n) ** 2)
        got = apply_cocycle(s, t, float(n), x, (1.0,))[0]
        want = math.exp(2.0 * n - math.exp(-float(n) ** 2))
        assert abs(got / want - 1.0) <= 1e-12


def test_spike_node_values_increase(systems):
    s = systems["spike"]
    x = s.state_samples[0]
    vals = [
        apply_cocycle(s, n + math.exp(-float(n) ** 2), float(n), x, (1.0,))[0]
        for n in (1, 2, 3)
    ]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 100.0


def test_spike_envelope(systems):
    # |Phi(t,s)| <= f(s) e^{-(t-s)} since f >= 1 everywhere
    s = systems["spike"]
    c = s.cocycle
    rng = random.Random(5)
    for _ in range(300):
        sl = rng.uniform(0.0, 6.0)
        h = rng.uniform(0.0, 10.0)
        val = c.log_diag(sl + h, sl, None)[0]
        assert val <= c._log_f(sl) - h + 1e-9


def test_invalid_params():
    with pytest.raises(InvalidParams):
        gallery.build("scalar_decay", {"mu": 0.5})  # must exceed the initial value 1
    with pytest.raises(InvalidParams):
        gallery.build("bounded_ratio", {"c": 1.0})
    with pytest.raises(InvalidParams):
        gallery.build("spike", {"nodes": 0})
    with pytest.raises(InvalidParams):
        gallery.build("no-such-system")


def test_diag3_tagging_by_sign_pattern():
    assert gallery.build("diag3", {"alpha1": -1, "alpha2": 1, "alpha3": -3}).ground_truth == "UES"
    assert gallery.build("diag3", {"alpha1": 1, "alpha2": 1, "alpha3": -3}).ground_truth == "unstable"
    assert gallery.build("diag3", {"alpha1": -1, "alpha2": -1, "alpha3": -3}).ground_truth == "unstable"
    assert gallery.build("diag3", {"alpha1": 0, "alpha2": 1, "alpha3": -3}).ground_truth == "US-not-UES"


def test_custom_declarative_family():
    s = gallery.build_custom({
        "entries": [[{"kind": "linear", "coef": -1.0}, {"kind": "log1p", "coef": 0.5}]],
    })
    x = s.state_samples[0]
    got = apply_cocycle(s, 2.0, 0.0, x, (1.0,))[0]
    assert got == pytest.approx(math.exp(-2.0 + 0.5 * math.log1p(2.0)), rel=1e-14)
    with pytest.raises(InvalidParams):
        gallery.build_custom({"entries": [[{"kind": "wat", "coef": 1.0}]]})
    with pytest.raises(InvalidParams):
        gallery.build_custom({"entries": []})
