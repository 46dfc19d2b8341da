"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math

import pytest

from skewflow.cli import check_ground_truth, main
from skewflow.core import SHIFT_PARAMETER, StatePoint, check_cocycle_law, check_semiflow_law
from skewflow.gauges import make_gauge
from skewflow.probes import law_probes, ratio_data
from skewflow.reports import FAIL, PASS

from conftest import (
    apply_cocycle,
    cocycle_matrix,
    exponential_system,
    integrate_finite,
    integrate_tail,
    nonuniform_fit,
    operator_norm,
    shift_cocycle,
    sum_tail,
    uniform_fit,
)

import io
from contextlib import redirect_stdout


def _line(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_acceptance_1_axiom_suite(systems):
    for name, s in systems.items():
        probes = law_probes(s, 200, seed=20240501)
        semi = check_semiflow_law(s, probes)
        coc = check_cocycle_law(s, probes)
        assert semi.max_composition_dev <= 1e-9, name
        assert semi.max_identity_dev <= 1e-9, name
        assert coc.max_composition_dev <= 1e-9, name
        assert coc.max_identity_dev <= 1e-9, name
    _line(1, "axiom suite, six systems, 200 seeded probes")


def test_acceptance_2_decay_bound_and_fit(systems, ratio_cache):
    s = systems["scalar_decay"]
    count = 0
    for sl in [0.2 * k for k in range(25)]:
        for h in [0.5 * k for k in range(1, 11)]:
            for theta in (0.0, 1.0):
                x = StatePoint(SHIFT_PARAMETER, theta)
                assert operator_norm(s, sl + h, sl, x) <= math.exp(-h) + 1e-9
                count += 1
    assert count == 500
    fit = uniform_fit(ratio_cache["scalar_decay"])
    assert fit is not None
    assert fit.nu >= 1.0
    assert fit.N <= 1.0 + 1e-9
    _line(2, "decaying-shift bound + fit constants (N, nu) = "
              f"({fit.N:.3g}, {fit.nu:g})")


def test_acceptance_3_bounded_ratio_separation(classifications):
    panel = classifications["bounded_ratio"]
    stab = panel.report("unif-stab")
    assert stab.verdict == PASS
    assert stab.evidence["N"] <= 1.0 + 1e-9
    datko = panel.report("datko-v")
    assert datko.verdict == FAIL
    assert datko.witness["converged"] is False
    assert datko.witness["partial"] >= 50.0  # R(||v||) = 1 on unit probes
    assert panel.report("fit-exp").verdict == "inconclusive"
    _line(3, "bounded-ratio separation: stable, tail diverges, no fit")


def test_acceptance_4_nonuniform_bounds(systems, ratio_cache, classifications):
    tsint = systems["tsint"]
    count = 0
    for sl in [0.25 * k for k in range(25)]:
        for h in [0.37 * k for k in range(1, 21)]:
            val = operator_norm(tsint, sl + h, sl, tsint.state_samples[0])
            assert val <= math.exp(2.0 * sl - h) * (1.0 + 1e-9)
            count += 1
    assert count == 500

    spike = systems["spike"]
    x = spike.state_samples[0]
    for n in (1, 2, 3):
        t = n + math.exp(-float(n) ** 2)
        got = apply_cocycle(spike, t, float(n), x, (1.0,))[0]
        want = math.exp(2.0 * n - math.exp(-float(n) ** 2))
        assert abs(got / want - 1.0) <= 1e-12

    assert classifications["spike"].label != "UES"
    nf = nonuniform_fit(ratio_cache["spike"])
    assert nf is not None and nf.nu >= 1.0
    _line(4, "oscillating bound, spike nodes exact, spike not UES, "
              f"nonuniform fit nu = {nf.nu:g}")


def test_acceptance_5_quadrature_oracles():
    tail = integrate_tail(lambda s: math.exp(-s), 0.0, 1e-6, 100.0)
    assert tail.converged
    assert abs(tail.value - 1.0) <= 1e-6

    series = sum_tail(lambda k: math.exp(-k), 0, 1e-6, 10000)
    assert series.converged
    assert abs(series.value - 1.0 / (1.0 - math.exp(-1.0))) <= 1e-6

    # backward integral of the pure contraction over a lag-10 window
    back = integrate_finite(lambda s: math.exp(-(10.0 - s)), 0.0, 10.0, 1e-8)
    assert abs(back.value - (1.0 - math.exp(-10.0))) <= 1e-6
    _line(5, "closed-form quadrature oracles")


def test_acceptance_6_panel_consistency_with_tags(systems, classifications, config):
    gauges = {"identity": make_gauge("identity"), "pow:2": make_gauge("pow:2")}
    required_when_ues = (
        "fit-exp", "minorant", "half-decay", "half-decay-d",
        "datko-v", "datko-op", "datko-d",
        "barbashin-v", "barbashin-op", "barbashin-d", "decay-d",
    )
    from skewflow.uniform import test_datko as datko_check

    for name, s in systems.items():
        verdict = classifications[name]
        by_id = {r.criterion_id: r for r in verdict.criteria}
        if s.ground_truth == "UES":
            for cid in required_when_ues:
                assert by_id[cid].verdict == PASS, (name, cid)
            for gname, gauge in gauges.items():
                for form, time in (("vector", "continuous"), ("operator", "continuous"),
                                   ("vector", "discrete")):
                    r = datko_check(s, form, time, gauge, config)
                    assert r.verdict == PASS, (name, r.criterion_id, gname)
        if s.ground_truth in ("US-not-UES", "ES-not-UES"):
            assert by_id["datko-v"].verdict == FAIL, name
            assert by_id["datko-v"].witness is not None, name
        # any inconsistency must surface as the contradiction exit path
        assert check_ground_truth(s, verdict, config) == [], name
    _line(6, "criterion sets consistent with all six tags")


def test_acceptance_6b_contradiction_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "custom_system": {
            "entries": [[{"kind": "linear", "coef": -1.0}]],
            "ground_truth": "ES-not-UES",
        }
    }))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["classify", "--config", str(cfg)])
    assert code == 3
    _line(6, "inconsistency surfaces as exit code 3")


def test_acceptance_7_discrete_continuous_agreement(classifications):
    for name, panel in classifications.items():
        cont = panel.report("fit-exp").verdict
        disc = panel.report("decay-d").verdict
        assert (cont == PASS) == (disc == PASS), (name, cont, disc)
    _line(7, "discrete and continuous decay verdicts agree on six systems")


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_acceptance_8_shift_consistency(alpha):
    base = exponential_system(-1.0)
    shifted = shift_cocycle(base, alpha)
    fit = uniform_fit(ratio_data(shifted))
    assert fit is not None
    assert 1.0 + alpha - 0.5 <= fit.nu <= 8.0

    twice = shift_cocycle(shift_cocycle(base, alpha / 2.0), alpha / 2.0)
    once = shift_cocycle(base, alpha)
    x = base.state_samples[0]
    for t, s in [(1.0, 0.0), (3.5, 1.25), (10.0, 2.0)]:
        a = cocycle_matrix(twice, t, s, x)[0, 0]
        b = cocycle_matrix(once, t, s, x)[0, 0]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    _line(8, f"shift alpha={alpha}: fitted nu {fit.nu:g}, composition exact")


def test_acceptance_9_deterministic_reports(tmp_path):
    raw = []
    for i in (1, 2):
        out = tmp_path / f"spike{i}.json"
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["classify", "--system", "spike", "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_bytes().split(b"\n")
        raw.append(b"\n".join(ln for ln in lines if b'"timestamp"' not in ln))
    assert raw[0] == raw[1]
    _line(9, "byte-identical classify reports modulo timestamp")
