"""Uniform criterion panel: fits, minorant, half-decay, tail and adjoint tests."""

import dataclasses
import io
import itertools
import json
import math
from contextlib import redirect_stdout

import pytest

from skewflow import RunConfig, cli, gallery, nonuniform, quadrature, uniform
from skewflow.cli import main
from skewflow.nonuniform import run_nonuniform_panel
from skewflow.errors import BudgetExceeded, MissingGrowthEnvelope, NonFinite
from skewflow.gauges import make_gauge
from skewflow.growth import estimate_growth
from skewflow.probes import discrete_pairs, ratio_data
from skewflow.quadrature import IntegralResult
from skewflow.reports import FAIL, INCONCLUSIVE, PASS
from skewflow.uniform import (
    Skipped,
    forward_tails,
    test_barbashin as barbashin_check,
    test_datko as datko_check,
    test_discrete_decay as discrete_decay_check,
    test_divergent_minorant as minorant_check,
    test_half_decay as half_decay_check,
    test_uniform_stability as uniform_stability_check,
)

from conftest import (
    exponential_system,
    integrate_finite,
    integrate_tail,
    log_adjoint_dual_norm,
    log_operator_norm,
    log_vector_norm,
    operator_norm,
    shift_cocycle,
    translate,
    uniform_fit,
)

IDENTITY = make_gauge("identity")


class TestFit:
    def test_scalar_decay_matches_expected_constants(self, ratio_cache):
        fit = uniform_fit(ratio_cache["scalar_decay"])
        assert fit is not None
        assert fit.nu >= 1.0
        assert fit.N <= 1.0 + 1e-9
        assert fit.residual <= 1e-9

    def test_pure_exponential(self):
        s = exponential_system(-2.0)
        fit = uniform_fit(ratio_data(s))
        assert fit.nu == 2.0
        assert fit.N == pytest.approx(1.0, abs=1e-12)

    def test_bounded_ratio_inconclusive(self, ratio_cache):
        assert uniform_fit(ratio_cache["bounded_ratio"]) is None

    def test_spike_inconclusive(self, ratio_cache):
        assert uniform_fit(ratio_cache["spike"]) is None


class TestUniformStability:
    def test_bounded_ratio_passes_with_unit_constant(self, systems, ratio_cache):
        r = uniform_stability_check(systems["bounded_ratio"], ratio_cache["bounded_ratio"])
        assert r.verdict == PASS
        assert r.evidence["N"] <= 1.0 + 1e-9

    def test_equal_time_probes_give_unit_constant(self, systems):
        data = ratio_data(systems["scalar_decay"], lag_max=0.0)
        r = uniform_stability_check(systems["scalar_decay"], data)
        assert r.verdict == PASS
        assert r.evidence["N"] == 1.0

    def test_growing_system_fails_with_witness(self):
        s = exponential_system(1.0)
        r = uniform_stability_check(s, ratio_data(s))
        assert r.verdict == FAIL
        assert r.witness is not None
        assert r.evidence["N"] > 1e3


class TestMinorant:
    def test_pure_contraction_passes(self):
        s = exponential_system(-1.0)
        r = minorant_check(s, ratio_data(s))
        assert r.verdict == PASS
        # f_hat(h) = e^h, so the overall gain dwarfs the factor
        assert r.evidence["gain"] >= 1e3

    def test_bounded_ratio_fails(self, systems, ratio_cache):
        r = minorant_check(systems["bounded_ratio"], ratio_cache["bounded_ratio"])
        assert r.verdict == FAIL
        assert r.witness is not None
        table = dict((h, v) for h, v in r.evidence["f_hat"])
        assert max(table.values()) <= 2.0 + 1e-9

    def test_short_grid_inconclusive(self, systems):
        data = ratio_data(systems["scalar_decay"], lag_max=1.0)
        r = minorant_check(systems["scalar_decay"], data)
        assert r.verdict == INCONCLUSIVE


class TestHalfDecay:
    def test_pure_contraction(self):
        s = exponential_system(-1.0)
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        r = half_decay_check(s, env, "continuous", 6.0)
        assert r.verdict == PASS
        assert r.evidence["delta"] == pytest.approx(1.1)
        assert r.evidence["sup_norm"] == pytest.approx(math.exp(-1.1), rel=1e-12)

    def test_slower_contraction(self):
        s = exponential_system(-0.7)
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        r = half_decay_check(s, env, "continuous", 6.0)
        assert r.verdict == PASS
        assert r.evidence["delta"] == pytest.approx(1.1)

    def test_bounded_ratio_fails(self, systems):
        s = systems["bounded_ratio"]
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        r = half_decay_check(s, env, "continuous", 6.0)
        assert r.verdict == FAIL
        assert r.witness["norm_at_delta_max"] > 0.5

    @pytest.mark.parametrize("mode, deltas", [("continuous", 50), ("discrete", 6)])
    def test_a_fail_evaluates_each_delta_once(self, systems, monkeypatch, mode, deltas):
        s = systems["bounded_ratio"]
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        calls = []
        log_norms = uniform.log_norms
        monkeypatch.setattr(uniform, "log_norms", lambda *args: calls.append(args) or log_norms(*args))
        r = half_decay_check(s, env, mode, 6.0)
        assert r.verdict == FAIL
        assert len(calls) == deltas

    def test_discrete_mode(self, systems):
        s = systems["scalar_decay"]
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        r = half_decay_check(s, env, "discrete", 6.0)
        assert r.verdict == PASS
        assert r.evidence["delta"] == 1.0

    def test_requires_growth_envelope(self, systems):
        with pytest.raises(MissingGrowthEnvelope):
            half_decay_check(systems["scalar_decay"], None, "continuous", 6.0)
        dubious = estimate_growth(systems["spike"], "uniform", data=ratio_data(systems["spike"], lag_max=10.0))
        with pytest.raises(MissingGrowthEnvelope):
            half_decay_check(systems["spike"], dubious, "continuous", 6.0)

    def test_delta_max_validated(self, systems):
        s = systems["scalar_decay"]
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        with pytest.raises(ValueError):
            half_decay_check(s, env, "continuous", 1.5)


class TestDatko:
    def test_pure_contraction_tail(self, config):
        s = exponential_system(-1.0)
        r = datko_check(s, "vector", "continuous", IDENTITY, config)
        assert r.verdict == PASS
        # tail from t0 is exactly 1 for every t0
        assert r.evidence["sup_ratio"] == pytest.approx(1.0, abs=1e-5)

    def test_bounded_ratio_diverges(self, systems, config):
        r = datko_check(systems["bounded_ratio"], "vector", "continuous", IDENTITY, config)
        assert r.verdict == FAIL
        assert r.evidence["divergence"]
        assert r.witness["converged"] is False
        assert r.witness["partial"] >= 50.0

    def test_bounded_ratio_x0_partial_value(self, systems, config):
        # frozen oracle: integral of 1/(2 - e^-s) over [0, 100] = 50 + ln(2)/2
        r = datko_check(systems["bounded_ratio"], "vector", "continuous", IDENTITY, config)
        per_t0 = dict((k, v) for k, v in r.evidence["per_t0"])
        assert per_t0[0.0] >= 50.346573590279974 - 1e-3

    def test_quadratic_gauge_on_contraction(self, config):
        s = exponential_system(-1.0)
        r = datko_check(s, "vector", "continuous", make_gauge("pow:2"), config)
        assert r.verdict == PASS
        assert r.evidence["sup_ratio"] == pytest.approx(0.5, abs=1e-5)

    def test_operator_form(self, systems, config):
        r = datko_check(systems["diag3"], "operator", "continuous", IDENTITY, config)
        assert r.verdict == PASS

    def test_discrete_form(self, systems, config):
        r = datko_check(systems["scalar_decay"], "vector", "discrete", IDENTITY, config)
        assert r.verdict == PASS
        bad = datko_check(systems["bounded_ratio"], "vector", "discrete", IDENTITY, config)
        assert bad.verdict == FAIL

    def test_spike_fails_with_settled_tail(self, systems, config):
        r = datko_check(systems["spike"], "vector", "continuous", IDENTITY, config)
        assert r.verdict == FAIL
        assert r.evidence["sup_ratio"] > 1e4  # beyond the 10x band, not mere divergence

    def test_growing_system_fails(self, config):
        s = exponential_system(1.0)
        r = datko_check(s, "vector", "continuous", IDENTITY, config)
        assert r.verdict == FAIL

    @pytest.mark.parametrize("form, time", [
        ("vector", "continuous"), ("operator", "continuous"), ("vector", "discrete"),
    ])
    def test_lowering_tol_never_turns_a_pass_into_a_fail(self, systems, form, time):
        s = systems["scalar_decay"]
        verdicts = []
        for tol in (1e-6, 1e-12, 1e-300):
            cfg = RunConfig(tol=tol)
            verdicts.append((
                datko_check(s, form, time, IDENTITY, cfg).verdict,
                datko_check(s, form, time, IDENTITY, cfg, 1.0).verdict,
            ))
        assert verdicts[0][0] == PASS
        for before, after in zip(verdicts, verdicts[1:]):
            for b, a in zip(before, after):
                assert not (b == PASS and a == FAIL), verdicts


class TestBarbashin:
    def test_scalar_contraction_integral(self, config):
        s = exponential_system(-1.0)
        r = barbashin_check(s, "vector-dual", "continuous", IDENTITY, config, "uniform-stability")
        assert r.verdict == PASS
        # integral over [t0, t] is 1 - e^{-(t-t0)} < 1 at every probe
        assert r.evidence["sup_integral"] == pytest.approx(1.0 - math.exp(-100.0), abs=1e-6)

    def test_hypothesis_recorded(self, config):
        s = exponential_system(-1.0)
        r = barbashin_check(s, "vector-dual", "continuous", IDENTITY, config, "uniform-growth")
        assert r.config_echo["hypothesis"] == "uniform-growth"

    def test_operator_dual_form(self, systems, config):
        r = barbashin_check(systems["diag3"], "operator-dual", "continuous", IDENTITY, config, "uniform-stability")
        assert r.verdict == PASS

    def test_discrete_sum(self, systems, config):
        r = barbashin_check(systems["scalar_decay"], "operator-dual", "discrete", IDENTITY, config, "uniform-stability")
        assert r.verdict == PASS
        assert r.evidence["sup_integral"] <= config.ncap

    def test_discrete_sum_reads_the_evolved_state(self, systems, config):
        # sum over k = n0..n of ||Phi(n, k, phi(k, n0, x))||, maximised over the probes
        s = systems["scalar_decay"]
        direct = max(
            sum(
                operator_norm(s, float(n), float(k), translate(float(k), float(n0), x))
                for k in range(n0, n + 1)
            )
            for n, n0 in discrete_pairs(s)
            for x in s.state_samples
        )
        r = barbashin_check(s, "operator-dual", "discrete", IDENTITY, config, "uniform-stability")
        assert r.evidence["sup_integral"] == pytest.approx(direct, rel=1e-12)

    def test_growing_system_fails(self, config):
        s = exponential_system(1.0)
        r = barbashin_check(s, "vector-dual", "continuous", IDENTITY, config, "none")
        assert r.verdict == FAIL
        assert r.witness is not None


class TestDiscreteDecay:
    def test_pure_exponential(self, config):
        s = exponential_system(-1.0)
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        r = discrete_decay_check(s, env, ratio_data(s, integer_only=True), n_cap=config.ncap)
        assert r.verdict == PASS
        assert r.evidence["nu"] == 1.0
        assert r.evidence["N"] == pytest.approx(1.0, abs=1e-12)

    def test_thin_grid_flag(self, config):
        s = exponential_system(-1.0, lag_max=2.0)
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        r = discrete_decay_check(s, env, ratio_data(s, integer_only=True), n_cap=config.ncap)
        assert r.evidence["thin_grid"]

    def test_requires_growth(self, systems, config):
        s = systems["spike"]
        env = estimate_growth(s, "uniform", data=ratio_data(s, lag_max=10.0))
        with pytest.raises(MissingGrowthEnvelope):
            discrete_decay_check(s, env, ratio_data(s, integer_only=True), n_cap=config.ncap)

    def test_agreement_with_continuous(self, systems, classifications):
        for name in systems:
            cont = classifications[name].report("fit-exp").verdict
            disc = classifications[name].report("decay-d").verdict
            assert (cont == PASS) == (disc == PASS), name


class TestPanel:
    def test_scalar_decay_is_ues(self, classifications):
        assert classifications["scalar_decay"].label == "UES"

    def test_bounded_ratio_is_us_not_ues(self, classifications):
        assert classifications["bounded_ratio"].label == "US-not-UES"

    def test_growing_exponential_is_unstable(self, config):
        panel = run_nonuniform_panel(exponential_system(1.0), config)
        assert panel.label == "unstable"

    def test_spike_not_ues(self, classifications):
        assert classifications["spike"].label != "UES"

    def test_report_order_is_fixed(self, classifications):
        ids = [r.criterion_id for r in classifications["scalar_decay"].criteria[:12]]
        assert ids == [
            "fit-exp", "unif-stab", "minorant", "half-decay", "half-decay-d",
            "datko-v", "datko-op", "datko-d",
            "barbashin-v", "barbashin-op", "barbashin-d", "decay-d",
        ]

    def test_pass_evidence_recheckable(self, classifications):
        # a pass verdict must be re-derivable from the recorded numbers
        for name, panel in classifications.items():
            for r in panel.criteria:
                if r.verdict != PASS:
                    continue
                ev = r.evidence
                if "N" in ev and "n_cap" in ev:
                    assert ev["N"] <= ev["n_cap"], (name, r.criterion_id)
                if "sup_ratio" in ev and "n_cap" in ev:
                    assert ev["sup_ratio"] <= ev["n_cap"], (name, r.criterion_id)
                if "sup_integral" in ev and "bound" in ev:
                    assert ev["sup_integral"] <= ev["bound"], (name, r.criterion_id)
                if "gain" in ev:
                    assert ev["gain"] >= ev["required_factor"], (name, r.criterion_id)

    def test_fail_reports_carry_witness(self, classifications):
        for name, verdict in classifications.items():
            for r in verdict.criteria:
                if r.verdict == FAIL:
                    assert r.witness, (name, r.criterion_id)


def _with_doubled_vectors(s):
    # bypasses the unit-norm constructor check on purpose: the property under
    # test is that criteria depend only on ratios and gauge scalings
    import dataclasses

    clone = object.__new__(type(s))
    for f in dataclasses.fields(s):
        object.__setattr__(clone, f.name, getattr(s, f.name))
    object.__setattr__(
        clone, "vector_samples", tuple(tuple(2.0 * c for c in v) for v in s.vector_samples)
    )
    return clone


class TestScaleInvariance:
    def test_vector_scaling_changes_no_verdict(self, systems, config):
        for name in ("scalar_decay", "bounded_ratio"):
            s = systems[name]
            base = run_nonuniform_panel(s, config)
            scaled = run_nonuniform_panel(_with_doubled_vectors(s), config)
            for a, b in zip(base.criteria, scaled.criteria):
                assert a.verdict == b.verdict, (name, a.criterion_id)


class TestShiftConsistency:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_shifted_rate_tracks_ladder(self, alpha):
        base = exponential_system(-1.0)
        shifted = shift_cocycle(base, alpha)
        fit = uniform_fit(ratio_data(shifted))
        assert fit is not None
        # factor-2 ladder: the fitted rate lies within one rung of 1 + alpha
        assert (1.0 + alpha) / 2.0 <= fit.nu <= (1.0 + alpha)


class TestMonotoneGaugeConsistency:
    @pytest.mark.parametrize("rate", [-1.0, -2.0])
    def test_quadratic_pass_implies_identity_pass(self, rate, config):
        # on pure exponential oracles, the fitted envelope has N = 1 and
        # nu >= ln 2, so a quadratic-gauge pass must coexist with an
        # identity-gauge pass
        s = exponential_system(rate)
        fit = uniform_fit(ratio_data(s))
        assert fit.N <= 1.0 + 1e-12 and fit.nu >= math.log(2.0)
        quadratic = datko_check(s, "vector", "continuous", make_gauge("pow:2"), config)
        identity = datko_check(s, "vector", "continuous", IDENTITY, config)
        assert quadratic.verdict == PASS
        assert identity.verdict == PASS


class _CountingCocycle:
    def __init__(self, base):
        self.base = base
        self.calls = 0

    def log_diag(self, t, s, x):
        self.calls += 1
        return self.base.log_diag(t, s, x)


def _counted(system, **fields):
    """A copy of system whose log_diag calls are counted."""
    cocycle = _CountingCocycle(system.cocycle)
    return dataclasses.replace(system, cocycle=cocycle, **fields), cocycle


class TestIntegralMemo:
    def test_sign_flipped_scalar_probe_costs_nothing(self, systems, config):
        base = systems["scalar_decay"]
        assert base.vector_samples == ((1.0,), (-1.0,))
        one, one_count = _counted(base, vector_samples=((1.0,),))
        both, both_count = _counted(base)
        single = list(forward_tails(one, "vector", "continuous", IDENTITY, config))
        by_probe = {
            (t0, x, v): r for t0, x, v, r in forward_tails(both, "vector", "continuous", IDENTITY, config)
        }
        assert both_count.calls == one_count.calls > 0
        for t0, x, _, r in single:
            assert by_probe[(t0, x, (1.0,))] == r == by_probe[(t0, x, (-1.0,))]

    def test_continuous_barbashin_op_reuses_barbashin_v(self, systems, config):
        s, count = _counted(systems["diag3"])
        v = barbashin_check(s, "vector-dual", "continuous", IDENTITY, config, "uniform-stability")
        calls = count.calls
        op = barbashin_check(s, "operator-dual", "continuous", IDENTITY, config, "uniform-stability")
        assert count.calls == calls > 0
        assert op.evidence == v.evidence

    def test_distinct_norm_classes_are_each_computed(self, systems):
        cfg = RunConfig(tmax=10.0)
        base = systems["diag3"]
        assert len({tuple(abs(c) for c in v) for v in base.vector_samples}) == 3
        full, full_count = _counted(base)
        results = {(t0, x, v): r for t0, x, v, r in forward_tails(full, "vector", "continuous", IDENTITY, cfg)}
        calls = 0
        for vec in base.vector_samples:
            alone, count = _counted(base, vector_samples=(vec,))
            for t0, x, v, r in forward_tails(alone, "vector", "continuous", IDENTITY, cfg):
                assert results[(t0, x, v)] == r, (t0, x, v)
            calls += count.calls
        assert full_count.calls == calls

    def test_memo_does_not_outlive_its_system(self, monkeypatch):
        calls = [0]
        log_diag_array = gallery.SpikeCocycle.log_diag_array

        def counting(self, t, s, theta):
            calls[0] += 1
            return log_diag_array(self, t, s, theta)

        monkeypatch.setattr(gallery.SpikeCocycle, "log_diag_array", counting)
        counts = []
        for _ in range(2):
            calls[0] = 0
            with redirect_stdout(io.StringIO()):
                main(["classify", "--system", "spike"])
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0

    def test_a_replaced_copy_starts_with_an_empty_memo(self, config):
        s = exponential_system(-1.0)
        datko_check(s, "vector", "continuous", IDENTITY, config)
        assert s.memo
        assert dataclasses.replace(s).memo == {}


def _classify_counts(monkeypatch, name, times, **fields):
    """log_diag calls of each of ``times`` identical ``classify`` calls in this process, with ``fields`` replaced."""
    built = []
    build = gallery.build
    monkeypatch.setattr(gallery, "build",
                        lambda *a, **k: built.append(_counted(build(*a, **k), **fields)) or built[-1][0])
    for _ in range(times):
        with redirect_stdout(io.StringIO()):
            main(["classify", "--system", name])
    return [count.calls for _, count in built]


class TestTimeInvariance:
    """A time-invariant system shares a tail or an adjoint integral between starting times."""

    def test_only_the_three_families_and_linear_custom_systems_are_declared(self, systems):
        declared = {name for name, s in systems.items() if s.time_invariant}
        assert declared == {"shift-metric-demo", "diag3", "scalar_decay", "bounded_ratio"}
        assert exponential_system(-1.0).time_invariant
        assert not gallery.build_custom({"entries": [[{"kind": "linear", "coef": -1.0},
                                                      {"kind": "sin", "coef": 0.1}]]}).time_invariant

    @pytest.mark.parametrize("name", ["tsint", "spike"])
    def test_undeclared_systems_evaluate_what_they_did(self, monkeypatch, name):
        # the log_diag calls of one classify before time invariance was declared anywhere,
        # and of one that shares each integral between states.  tsint's rose from 39,341 and
        # 15,443 when a panel whose decay fit passed began to batch every integral a criterion
        # reads: its uniform fit passes on the short probe grid, but barbashin-v, -op and -d
        # fail at their 43rd, 43rd and 28th probes, after the whole batch was computed
        assert _classify_counts(monkeypatch, name, 1, state_independent=False) == [
            {"tsint": 42741, "spike": 191280}[name]]
        monkeypatch.undo()
        assert _classify_counts(monkeypatch, name, 1) == [{"tsint": 16061, "spike": 66500}[name]]

    @pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
    def test_two_identical_classify_calls_evaluate_alike(self, monkeypatch, name):
        first, second = _classify_counts(monkeypatch, name, 2)
        assert first == second > 0

    @pytest.mark.parametrize("name", ["shift-metric-demo", "diag3"])
    @pytest.mark.parametrize("form, time, tmax", [("vector", "continuous", 10.0), ("operator", "continuous", 10.0),
                                                  ("vector", "discrete", 100.0)])
    def test_a_tail_serves_the_later_t0_it_settled_in_time_for(self, systems, name, form, time, tmax):
        # tmax 10: a tail from t0 = 0 settles near 9, in time for t0 = 1 but not for t0 = 2; a
        # discrete sum has as many terms from every t0, so a settled one serves them all
        cfg = RunConfig(tmax=tmax)
        own = list(forward_tails(dataclasses.replace(systems[name], time_invariant=False), form, time, IDENTITY, cfg))
        shared = list(forward_tails(dataclasses.replace(systems[name]), form, time, IDENTITY, cfg))
        first = {(x, v): r for t0, x, v, r in own if t0 == 0.0}
        served = 0
        for (t0, x, v, mine), (*probe, r) in zip(own, shared):
            assert probe == [t0, x, v]
            r0 = first[(x, v)]
            horizon = tmax if time == "continuous" else t0 + 1 + tmax
            if r0.converged and r0.truncation_horizon <= horizon - t0:
                assert r == r0
                served += t0 > 0.0
            else:
                assert r == mine, (t0, x, v)  # its own tail, unsettled here: its own witness
                assert not r.converged and r.truncation_horizon == horizon
        assert served > 0 and (served < len(own) - len(first)) == (time == "continuous")

    def test_an_unsettled_tail_is_not_shared(self, systems, config):
        s = gallery.build("shift-metric-demo", {"rate": -1.0})  # every tail diverges
        assert s.time_invariant
        own = list(forward_tails(dataclasses.replace(s, time_invariant=False), "vector", "continuous", IDENTITY, config))
        shared = list(forward_tails(s, "vector", "continuous", IDENTITY, config))
        assert shared == own
        assert all(not r.converged for *_, r in shared)
        values = {x: {r.value for _, y, _, r in shared if y == x} for x in s.state_samples}
        assert all(len(v) == len({t0 for t0, *_ in shared}) for v in values.values())  # one partial per t0

    @pytest.mark.parametrize("time, operator", [("continuous", False), ("continuous", True), ("discrete", True)])
    def test_an_adjoint_integral_serves_every_pair_of_its_length(self, systems, config, time, operator):
        s = systems["diag3"]
        own = list(uniform.backward_integrals(dataclasses.replace(s, time_invariant=False), time, IDENTITY,
                                              config, 0.5, operator))
        first = {(t - t0, x, w): value for t, t0, x, w, value in own if t0 == 0}
        shared = list(uniform.backward_integrals(dataclasses.replace(s), time, IDENTITY, config, 0.5, operator))
        for (t, t0, x, w, mine), (*probe, value) in zip(own, shared):
            assert probe == [t, t0, x, w]
            assert value == first[(t - t0, x, w)]
            if time == "discrete":  # the terms of a sum over integers do not depend on where it starts
                assert value == mine

    def test_a_false_declaration_fails_axioms(self, monkeypatch):
        build = gallery.build
        monkeypatch.setattr(gallery, "build", lambda *a, **k: dataclasses.replace(build(*a, **k), time_invariant=True))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["axioms", "--system", "tsint"])
        laws = json.loads(buf.getvalue())["laws"]
        assert code == 1 and not laws["ok"] and laws["time_invariance"] > 1e-6
        monkeypatch.undo()
        with redirect_stdout(io.StringIO()):
            assert main(["axioms", "--system", "tsint"]) == 0


def _axioms(name):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["axioms", "--system", name])
    return code, json.loads(buf.getvalue())["laws"]


# integrand array calls of one classify: each is one Simpson level pass, a round of tail
# blocks or series terms, or a set of discrete adjoint sums.  They fell from 141, 272, 116,
# 98, 130 and 712 when a criterion whose panel's decay fit passed began to compute every
# integral it reads in one batch, rather than in batches of 1, 2, 4, ...; then from 55, 100,
# 52, 98, 53 and 471 when a passing fit-exp-nu began to size the uniform criteria's batches
# too, and a continuous uniform batch to compute its -nu partner's integrals in the same run
INTEGRAND_CALLS = {"shift-metric-demo": 37, "diag3": 79, "scalar_decay": 33, "bounded_ratio": 98,
                   "tsint": 37, "spike": 152}

# integrand points of one classify: an integral costs the same points in any batch and at
# any weight's run, so neither change above moved them (131,300 over the gallery)
INTEGRAND_POINTS = {"shift-metric-demo": 9072, "diag3": 30929, "scalar_decay": 6258, "bounded_ratio": 9311,
                    "tsint": 13340, "spike": 62390}


def _integrand_calls(monkeypatch, name) -> list:
    """(charged to, points) of each integrand array call of ``classify --system name``: charged to the panel
    row (its criterion id) whose thunk ``run_rows`` runs, or to ``pow:2``, the ground-truth check's re-runs."""
    calls, running = [], [None]
    evaluate, run_rows, check = quadrature.evaluate, nonuniform.run_rows, cli.check_ground_truth

    def counting(F, x, k):
        calls.append((running[0], x.size))
        return evaluate(F, x, k)

    def charged(label, run):
        def call(*args):
            running[0] = label
            try:
                return run(*args)
            finally:
                running[0] = None
        return call

    monkeypatch.setattr(quadrature, "evaluate", counting)
    monkeypatch.setattr(uniform, "evaluate", counting)
    monkeypatch.setattr(nonuniform, "run_rows",
                        lambda rows, *a: run_rows([(cid, charged(cid, r)) for cid, r in rows], *a))
    monkeypatch.setattr(cli, "check_ground_truth", charged("pow:2", check))
    with redirect_stdout(io.StringIO()):
        main(["classify", "--system", name])
    return calls


@pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
def test_integrand_calls_of_one_classify(monkeypatch, name):
    assert len(_integrand_calls(monkeypatch, name)) == INTEGRAND_CALLS[name]


@pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
def test_integrand_points_of_one_classify(monkeypatch, name):
    assert sum(points for _, points in _integrand_calls(monkeypatch, name)) == INTEGRAND_POINTS[name]


# integrand points of one classify by criterion; a criterion missing from a table costs none.  A
# continuous uniform row whose batch is paired with its -nu twin's weight computes the twin's
# integrals in the same run and is charged for them, so on a system whose fit-exp-nu passed the
# twin finds them in the memo and reads 0.  datko-op and barbashin-op read 0 where their integrals
# are datko-v's and barbashin-v's.  pow:2 is the ground-truth check of a UES tag; the identity
# datko-v re-run for a US-not-UES or ES-not-UES tag finds the panel's integrals in the memo
INTEGRAND_POINTS_BY_CRITERION = {
    "shift-metric-demo": {"datko-v": 2824, "datko-d": 64, "barbashin-v": 3492, "barbashin-d": 552,
                          "datko-d-nu": 192, "barbashin-d-nu": 552, "pow:2": 1396},
    "diag3": {"datko-v": 8861, "datko-op": 2824, "datko-d": 192, "barbashin-v": 10476, "barbashin-d": 552,
              "datko-d-nu": 544, "barbashin-d-nu": 1656, "pow:2": 5824},
    "scalar_decay": {"datko-v": 1752, "datko-d": 48, "barbashin-v": 2610, "barbashin-d": 414,
                     "datko-d-nu": 48, "barbashin-d-nu": 414, "pow:2": 972},
    "bounded_ratio": {"datko-v": 700, "datko-d": 100, "barbashin-v": 771, "barbashin-d": 414,
                      "datko-v-nu": 3364, "datko-d-nu": 100, "barbashin-nu": 3448, "barbashin-d-nu": 414},
    "tsint": {"datko-v": 7536, "datko-d": 80, "barbashin-v": 5414, "barbashin-d": 115,
              "datko-d-nu": 80, "barbashin-d-nu": 115},
    "spike": {"datko-v": 41216, "datko-d": 112, "barbashin-v": 20628, "barbashin-d": 161,
              "datko-d-nu": 112, "barbashin-d-nu": 161},
}


@pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
def test_integrand_points_per_criterion(monkeypatch, name):
    table = INTEGRAND_POINTS_BY_CRITERION[name]
    assert sum(table.values()) == INTEGRAND_POINTS[name]
    charged = {}
    for label, points in _integrand_calls(monkeypatch, name):
        charged[label] = charged.get(label, 0) + points
    assert charged == table


def _kernel_run(system, time, config, alpha, expect, form):
    """The probes of one forward_tails (form "vector" or "operator") or backward_integrals (form None) run."""
    if form is None:
        return list(uniform.backward_integrals(system, time, IDENTITY, config, alpha, expect=expect))
    return list(forward_tails(system, form, time, IDENTITY, config, alpha, expect=expect))


class TestPairedWeights:
    """A batch that also computes its probes at a further weight leaves that weight's run as it would have been.

    The paired run's own probes are the unpaired run's, and the run at the
    further weight reads every integral from the memo, each the one its own
    run would have computed, bit for bit (IntegralResult compares its floats).
    """

    @staticmethod
    def _runs(monkeypatch, fresh, time, config, form, weight=0.25, before=None):
        calls = []
        evaluate = quadrature.evaluate
        monkeypatch.setattr(quadrature, "evaluate", lambda F, x, k: calls.append(x.size) or evaluate(F, x, k))
        monkeypatch.setattr(uniform, "evaluate", quadrature.evaluate)
        paired = fresh()
        if before is not None:
            before(paired)
        own = _kernel_run(paired, time, config, 0.0, (weight,), form)
        made = len(calls)
        partner = _kernel_run(paired, time, config, weight, (), form)
        # every integral of the partner's run came with the paired batches, unless one ran unpaired before
        assert len(calls) == made or before is not None
        monkeypatch.undo()
        alone = fresh()
        return own, _kernel_run(alone, time, config, 0.0, None, form), partner, \
            _kernel_run(alone, time, config, weight, None, form)

    @pytest.mark.parametrize("form", ["vector", "operator", None], ids=["tails-v", "tails-op", "adjoint"])
    @pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
    def test_gallery_systems(self, monkeypatch, systems, config, name, form):
        own, own_alone, partner, partner_alone = self._runs(
            monkeypatch, lambda: dataclasses.replace(systems[name]), "continuous", config, form)
        assert own == own_alone and partner == partner_alone

    @pytest.mark.parametrize("form", ["vector", None], ids=["tails", "adjoint"])
    @pytest.mark.parametrize("time", ["continuous", "discrete"])
    @pytest.mark.parametrize("rate, tmax, weight", [(-1.0, 100.0, 0.25), (-1.0, 10.0, 0.25), (0.5, 100.0, 0.25),
                                                    (-1.0, 20.0, -0.5)])
    def test_time_invariant_sharing(self, monkeypatch, rate, tmax, weight, time, form):
        # after one unpaired probe the first tail is in the own memo only.  At tmax 20 the own tail
        # from t0 = 0 settles too late for t0 = 4, so t0 = 4 is batched; the faster-decaying tail
        # at weight -0.5 that a run at that weight shares between its t0s still runs from t0 = 0
        def one_probe(s):
            cfg = RunConfig(tmax=tmax)
            run = forward_tails(s, form, time, IDENTITY, cfg) if form else uniform.backward_integrals(s, time, IDENTITY, cfg)
            next(run)

        own, own_alone, partner, partner_alone = self._runs(
            monkeypatch, lambda: exponential_system(rate), time, RunConfig(tmax=tmax), form, weight, one_probe)
        assert own == own_alone and partner == partner_alone


class TestStateIndependence:
    """A state-independent system shares a tail or an adjoint integral between states, bit for bit."""

    def test_exactly_tsint_spike_and_custom_systems_are_declared(self, systems):
        assert {name for name, s in systems.items() if s.state_independent} == {"tsint", "spike"}
        assert exponential_system(-1.0).state_independent
        assert gallery.build_custom({"entries": [[{"kind": "tsin", "coef": 0.5}], [{"kind": "sin", "coef": 1.0}]],
                                     "scales": [2.0, 1.0]}).state_independent

    @pytest.mark.parametrize("name", ["tsint", "spike"])
    @pytest.mark.parametrize("form, time", [("vector", "continuous"), ("operator", "continuous"),
                                            ("vector", "discrete")])
    def test_a_shared_tail_is_the_one_it_replaces(self, systems, config, name, form, time):
        own = list(forward_tails(dataclasses.replace(systems[name], state_independent=False), form, time,
                                 IDENTITY, config, 0.25, first=0))
        shared = list(forward_tails(dataclasses.replace(systems[name]), form, time, IDENTITY, config, 0.25, first=0))
        assert shared == own and len({x for _, x, _, _ in shared}) == 3  # each probe keeps its own x

    @pytest.mark.parametrize("name", ["tsint", "spike"])
    @pytest.mark.parametrize("time, operator", [("continuous", False), ("continuous", True), ("discrete", True)])
    def test_a_shared_adjoint_integral_is_the_one_it_replaces(self, systems, config, name, time, operator):
        own = list(uniform.backward_integrals(dataclasses.replace(systems[name], state_independent=False), time,
                                              IDENTITY, config, 0.5, operator))
        shared = list(uniform.backward_integrals(dataclasses.replace(systems[name]), time, IDENTITY, config, 0.5,
                                                 operator))
        assert shared == own and len({x for _, _, x, _, _ in shared}) == 3

    @pytest.mark.parametrize("rate, tmax", [(-1.0, 100.0), (-1.0, 10.0), (0.5, 100.0)])
    def test_a_time_invariant_custom_system_shares_both_ways(self, rate, tmax):
        # tmax 10: a tail from t0 = 0 settles in time for t0 = 1 only; rate 0.5: no tail settles,
        # so each t0 keeps its own, whichever state first needs it
        s, cfg = exponential_system(rate), RunConfig(tmax=tmax)
        assert s.time_invariant and s.state_independent
        own = list(forward_tails(dataclasses.replace(s, state_independent=False), "vector", "continuous",
                                 IDENTITY, cfg))
        shared, count = _counted(s)
        assert list(forward_tails(shared, "vector", "continuous", IDENTITY, cfg)) == own
        alone, alone_count = _counted(s, state_samples=s.state_samples[:1])
        list(forward_tails(alone, "vector", "continuous", IDENTITY, cfg))
        assert count.calls == alone_count.calls > 0  # three states cost what one does

    def test_a_false_declaration_fails_axioms(self, monkeypatch):
        build = gallery.build
        monkeypatch.setattr(gallery, "build",
                            lambda *a, **k: dataclasses.replace(build(*a, **k), state_independent=True))
        code, laws = _axioms("bounded_ratio")  # its log_diag reads the state
        assert code == 1 and not laws["ok"] and laws["state_independence"] > 1e-6
        assert laws["time_invariance"] <= laws["tolerance"]
        monkeypatch.undo()
        assert _axioms("bounded_ratio") == (0, dict(laws, ok=True, state_independence=None))

    @pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
    def test_axioms_passes_on_every_gallery_system(self, name):
        code, laws = _axioms(name)
        assert code == 0 and laws["ok"]
        assert (laws["state_independence"] is not None) == (name in ("tsint", "spike"))
        assert laws["state_independence"] in (None, 0.0)


class TestIntegrandsMatchTheWrappers:
    """Each kernel's per-probe integrand computes exactly what the core log-norm wrappers give."""

    @pytest.mark.parametrize("name", ["diag3", "shift-metric-demo"])
    @pytest.mark.parametrize("form", ["vector", "operator"])
    def test_forward_tails(self, systems, name, form):
        s = dataclasses.replace(systems[name], time_invariant=False)  # an empty memo, and each tail from its own t0
        cfg = RunConfig(tmax=10.0)
        gauge = make_gauge("pow:2")
        for t0, x, v, result in itertools.islice(forward_tails(s, form, "continuous", gauge, cfg), 8):
            def f(sigma):
                ln = (log_vector_norm(s, sigma, t0, x, v) if form == "vector"
                      else log_operator_norm(s, sigma, t0, x))
                return gauge(math.exp(ln))

            assert result == integrate_tail(f, t0, cfg.tol, 10.0, eval_cap=cfg.eval_cap)

    @pytest.mark.parametrize("name", ["diag3", "shift-metric-demo"])
    @pytest.mark.parametrize("time, operator", [("continuous", False), ("continuous", True),
                                                ("discrete", True)])
    def test_backward_integrals(self, systems, config, name, time, operator):
        s = dataclasses.replace(systems[name])
        alpha = 0.5
        values = uniform.backward_integrals(s, time, IDENTITY, config, alpha, operator)
        for t, t0, x, vstar, value in itertools.islice(values, 12):
            def f(u):
                y = translate(u, float(t0), x)
                ln = (log_operator_norm(s, t, u, y) if vstar is None
                      else log_adjoint_dual_norm(s, t, u, y, vstar))
                return math.exp(alpha * (t - u) + ln)

            if time == "continuous":
                expected = integrate_finite(f, t0, t, config.tol, eval_cap=config.eval_cap).value
            else:
                expected = 0.0
                for k in range(t0, t + 1):
                    expected += f(float(k))
            assert value == expected


class TestSkippedCause:
    def test_exhausted_budget(self, systems):
        r = datko_check(systems["scalar_decay"], "vector", "continuous", IDENTITY, RunConfig(eval_cap=0))
        assert r.verdict == INCONCLUSIVE
        assert r.evidence["band"] == "budget-limited probe"

    @pytest.mark.parametrize("time", ["continuous", "discrete"])
    def test_overflow(self, time, config):
        # e^{800 (s - t0)} leaves float range within one unit of t0
        r = datko_check(exponential_system(800.0), "vector", time, IDENTITY, config)
        assert r.verdict == INCONCLUSIVE
        assert r.evidence["band"] == "overflow-limited probe"

    @pytest.mark.parametrize("error, settles, expected", [
        # a budget says nothing of divergence: a tail unsettled at the horizon it shortened decides nothing
        (BudgetExceeded("cap"), False, Skipped("budget")),
        (BudgetExceeded("cap"), True, "result"),
        # an overflow does: the tail unsettled at the largest finite horizon is a divergence signal
        (NonFinite("overflow"), False, "result"),
    ])
    def test_a_halved_horizon(self, error, settles, expected):
        halved = IntegralResult(1.0, 0.0, settles, 10, 8.0)
        horizons = []

        def run(idx, h):
            horizons.append(h)
            return [error if len(horizons) == 1 else halved for _ in idx]

        assert uniform._with_halving(run, [0.0], [16.0]) == [halved if expected == "result" else expected]
        assert horizons == [[16.0], [8.0]]

    def test_adjoint_overflow_and_budget(self, config):
        s = exponential_system(800.0)
        causes = {val.cause for *_, val in uniform.backward_integrals(s, "continuous", IDENTITY, config)
                  if isinstance(val, Skipped)}
        assert causes == {"overflow"}
        starved = RunConfig(eval_cap=0)
        causes = {val.cause for *_, val in uniform.backward_integrals(s, "continuous", IDENTITY, starved)
                  if isinstance(val, Skipped)}
        assert causes == {"budget"}


def test_a_discrete_sum_of_more_terms_than_the_evaluation_cap_is_budget_limited(systems):
    s = dataclasses.replace(systems["scalar_decay"])
    sums = list(uniform.backward_integrals(s, "discrete", IDENTITY, RunConfig(eval_cap=4), operator=True))
    assert {t - t0 + 1 > 4 for t, t0, *_ in sums} == {True, False}
    for t, t0, x, _, value in sums:
        assert (value == Skipped("budget")) == (t - t0 + 1 > 4), (t, t0)
    tails = list(forward_tails(s, "vector", "discrete", IDENTITY, RunConfig(eval_cap=4)))
    assert {r for *_, r in tails} == {Skipped("budget")}


def test_memoized_batches_hold_every_missing_key_when_a_pass_is_expected():
    """One batch holds every distinct missing key; a key that changed after it is computed in one more batch."""
    memo, batches = {"b": "kept"}, []
    keys = ["a", "b", "a", "c", "d", "c"]

    def key(i):  # a key that reads the memo, as time-invariant sharing does: 4 moves to "e" once "a" is in
        return "e" if i == 4 and "a" in memo else keys[i]

    def compute(positions):
        batches.append(positions)
        return [f"at {p}" for p in positions]

    got = list(uniform._memoized(memo, 6, key, compute, expect_pass=True))
    assert batches == [[0, 3, 4], [4]]  # a, c and d at once; then e, which only 4 reads
    assert got == [(0, "at 0"), (1, "kept"), (2, "at 0"), (3, "at 3"), (4, "at 4"), (5, "at 3")]
    assert memo == {"a": "at 0", "b": "kept", "c": "at 3", "d": "at 4", "e": "at 4"}


def test_memoized_batches_hold_1_2_4_keys():
    """A caller that stops at its k-th key has computed its keys in batches of 1, 2, 4, ..., fewer than 2k."""
    for k in range(1, 65):
        batches = []

        def compute(positions):
            batches.append(len(positions))
            return positions

        for _ in itertools.islice(uniform._memoized({}, 200, list(range(200)).__getitem__, compute), k):
            pass
        assert sum(batches) < 2 * k, k
        assert batches == [2 ** i for i in range(len(batches))], k


class TestEarlyExitsStayCheap:
    """A criterion that stops at its k-th probe has its integrals computed in batches of 1, 2, 4, ...

    so fewer than 2k of them: each memo setting holds fewer than twice the
    entries that one probe at a time computed (the counts below).  Both
    runs have failing decay fits, uniform and nonuniform, so no criterion
    of theirs expects to pass and batches everything it reads at once.
    """

    ONE_AT_A_TIME = {
        ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1"): {
            ("tail", "continuous", 0.0): 1, ("tail", "discrete", 0.0): 1,
            ("adjoint", "continuous", 0.0): 9, ("adjoint", "discrete", 0.0): 9,
            ("tail", "continuous", 0.5): 1, ("tail", "discrete", 0.5): 1,
            ("adjoint", "continuous", 0.5): 13, ("adjoint", "discrete", 0.5): 13,
        },
        ("classify", "--system", "bounded_ratio"): {
            ("tail", "continuous", 0.0): 1, ("tail", "discrete", 0.0): 1,
            ("adjoint", "continuous", 0.0): 126, ("adjoint", "discrete", 0.0): 168,
            ("tail", "continuous", 0.5): 1, ("tail", "discrete", 0.5): 1,
            ("adjoint", "continuous", 0.5): 13, ("adjoint", "discrete", 0.5): 19,
        },
    }

    @pytest.mark.parametrize("argv", list(ONE_AT_A_TIME), ids=" ".join)
    def test_each_memo_holds_fewer_than_twice_the_entries(self, monkeypatch, argv):
        built = []
        build = gallery.build
        monkeypatch.setattr(gallery, "build", lambda *a, **k: built.append(build(*a, **k)) or built[-1])
        with redirect_stdout(io.StringIO()):
            main(list(argv))
        (system,) = built
        counts = {(key[0], key[1], key[3]): len(entries) for key, entries in system.memo.items()}
        expected = self.ONE_AT_A_TIME[argv]
        assert counts.keys() == expected.keys()
        for setting, n in expected.items():
            assert counts[setting] < 2 * n, setting


class _Marked:
    """e^{-(t-s)}; a nan log for a state at 1e6 or beyond, and an OverflowError at 2e6 or beyond."""

    def log_diag(self, t, s, x):
        if x.value >= 2e6:
            return [math.exp(1000.0)]
        return [math.nan if x.value >= 1e6 else -(t - s)]


class TestOverflowInABatch:
    """A point whose log_diag raises OverflowError fails only its own probe, as a non-finite value does.

    The probes of the states 0, 1e6 and 2e6 share their batches; those of
    state 0 keep the values they have without the other two.  A nan term
    in a discrete adjoint sum is added like any other, so the sum is nan;
    a term that raised skips the sum.
    """

    @staticmethod
    def systems():
        base = exponential_system(-1.0, lag_max=16.0)
        states = tuple(dataclasses.replace(base.state_samples[0], value=v) for v in (0.0, 1e6, 2e6))
        # _Marked reads its state, so these systems are not declared state-independent
        return (dataclasses.replace(base, cocycle=_Marked(), state_samples=states, state_independent=False),
                dataclasses.replace(base, cocycle=_Marked(), state_samples=states[:1], state_independent=False))

    @pytest.mark.parametrize("time", ["continuous", "discrete"])
    def test_forward_tails(self, time):
        marked, alone = self.systems()
        want = {t0: r for t0, _, _, r in uniform.forward_tails(alone, "vector", time, IDENTITY, RunConfig())}
        got = list(uniform.forward_tails(marked, "vector", time, IDENTITY, RunConfig()))
        assert {x.value for _, x, _, _ in got} == {0.0, 1e6, 2e6}
        for t0, x, _, r in got:
            assert r == (want[t0] if x.value == 0.0 else Skipped("overflow")), (t0, x)

    @pytest.mark.parametrize("time", ["continuous", "discrete"])
    def test_backward_integrals(self, time):
        marked, alone = self.systems()
        want = {(t, t0): v for t, t0, _, _, v in uniform.backward_integrals(alone, time, IDENTITY, RunConfig())}
        got = list(uniform.backward_integrals(marked, time, IDENTITY, RunConfig()))
        assert {x.value for _, _, x, _, _ in got} == {0.0, 1e6, 2e6}
        for t, t0, x, _, v in got:
            if x.value == 0.0:
                assert v == want[t, t0]
            elif time == "continuous" and t == t0:
                assert v == 0.0  # an empty interval: no evaluation
            elif x.value == 1e6 and time == "discrete":
                assert isinstance(v, float) and math.isnan(v)
            else:
                assert v == Skipped("overflow"), (t, t0, x)
