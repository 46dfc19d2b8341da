"""Nonuniform criteria: s-dependent fits, majorant, shifted-weight tests."""

import math

import pytest

from skewflow import RunConfig, nonuniform, uniform
from skewflow.gauges import make_gauge
from skewflow.nonuniform import (
    fit_nonuniform_decay,
    run_nonuniform_panel,
    test_barbashin_nonuniform as barbashin_nu_check,
    test_decaying_majorant as majorant_check,
)
from skewflow.probes import ratio_data
from skewflow.reports import FAIL, INCONCLUSIVE, NONUNIFORM_CRITERIA, PASS, UNIFORM_CRITERIA, CriterionReport
from skewflow.uniform import test_datko as datko_check

from conftest import exponential_system, log_vector_norm, shift_cocycle

IDENTITY = make_gauge("identity")


class TestNonuniformFit:
    def test_tsint_fits_with_rate_at_least_one(self, systems, ratio_cache):
        fit = fit_nonuniform_decay(systems["tsint"], ratio_cache["tsint"])
        assert fit is not None
        assert fit.nu >= 0.5
        # the envelope constant e^{2s} stays under the nonuniform cap
        assert max(fit.N_of_s.values()) <= 1e6

    def test_spike_fits_with_rate_at_least_one(self, systems, ratio_cache):
        fit = fit_nonuniform_decay(systems["spike"], ratio_cache["spike"])
        assert fit is not None
        assert fit.nu >= 1.0
        assert fit.residual <= 1e-9

    def test_spike_constants_reflect_node_heights(self, systems, ratio_cache):
        fit = fit_nonuniform_decay(systems["spike"], ratio_cache["spike"])
        # the s=5 bin carries the e^{10} node transient
        assert fit.N_of_s[5.0] >= math.exp(10.0) * 0.9

    def test_uniform_case_embeds(self):
        s = exponential_system(-1.0)
        fit = fit_nonuniform_decay(s, ratio_data(s))
        assert fit.nu == 1.0
        assert max(fit.N_of_s.values()) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_ratio_inconclusive(self, systems, ratio_cache):
        assert fit_nonuniform_decay(systems["bounded_ratio"], ratio_cache["bounded_ratio"]) is None

    def test_embedding_bounds_uniform_constant(self, systems, ratio_cache, uniform_panels):
        # at the uniform fit's own rate, every per-bin constant is below the
        # uniform constant (same probes, same ladder rung)
        for name, panel in uniform_panels.items():
            if panel.fit is None:
                continue
            nf = fit_nonuniform_decay(
                systems[name], ratio_cache[name], nu_ladder=(panel.fit.nu,), cap=1e6
            )
            assert nf is not None, name
            assert max(nf.N_of_s.values()) <= panel.fit.N + 1e-9, name


class TestMajorant:
    def test_pure_contraction_passes(self):
        s = exponential_system(-1.0)
        r = majorant_check(s, ratio_data(s))
        assert r.verdict == PASS

    def test_spike_passes(self, systems, ratio_cache):
        r = majorant_check(systems["spike"], ratio_cache["spike"])
        assert r.verdict == PASS

    def test_bounded_ratio_fails(self, systems, ratio_cache):
        r = majorant_check(systems["bounded_ratio"], ratio_cache["bounded_ratio"])
        assert r.verdict == FAIL
        assert r.witness is not None

    def test_short_grid_inconclusive(self, systems):
        data = ratio_data(systems["scalar_decay"], lag_max=0.5)
        r = majorant_check(systems["scalar_decay"], data)
        assert r.verdict == INCONCLUSIVE


class TestDatkoNonuniform:
    def test_tsint_passes_with_per_t0_constants(self, systems, config):
        r = datko_check(systems["tsint"], "vector", "continuous", IDENTITY, config, 0.25)
        assert r.verdict == PASS
        per_t0 = dict(r.evidence["per_t0"])
        assert all(v <= 1e6 for v in per_t0.values())

    def test_spike_passes(self, systems, config):
        r = datko_check(systems["spike"], "vector", "continuous", IDENTITY, config, 0.5)
        assert r.verdict == PASS
        per_t0 = dict(r.evidence["per_t0"])
        # constants grow with t0 (nonuniformity) and are not required bounded
        assert per_t0[6.0] > per_t0[0.0]

    def test_bounded_ratio_diverges(self, systems, config):
        r = datko_check(systems["bounded_ratio"], "vector", "continuous", IDENTITY, config, 0.5)
        assert r.verdict == FAIL
        assert r.witness["converged"] is False

    def test_discrete_form(self, systems, config):
        r = datko_check(systems["spike"], "vector", "discrete", IDENTITY, config, 0.5)
        assert r.verdict == PASS

    def test_operator_form_flagged_literal(self, systems, config):
        r = datko_check(systems["spike"], "operator", "continuous", IDENTITY, config, 0.5)
        assert "literal-threshold" in r.config_echo["flag"]
        assert "literal_violations" in r.evidence

    def test_operator_form_inconclusive_when_tails_skipped(self, systems):
        # with a horizon of 2 no tail is computed: an empty table is no pass
        r = datko_check(systems["bounded_ratio"], "operator", "continuous", IDENTITY, RunConfig(tmax=2.0), 0.5)
        assert r.verdict == INCONCLUSIVE
        assert r.evidence["per_t0"] == []
        assert r.evidence["band"] == "horizon-limited probe"

    def test_alpha_must_be_positive(self, systems, config):
        # a nonuniform weight: alpha = 0 is the uniform setting's datko-v
        with pytest.raises(ValueError):
            datko_check(systems["spike"], "vector", "continuous", IDENTITY, config, -0.5)


class TestBarbashinNonuniform:
    def test_scalar_contraction(self, config):
        s = exponential_system(-1.0)
        r = barbashin_nu_check(s, "continuous", IDENTITY, 0.5, config)
        assert r.verdict == PASS
        # integral of e^{-0.5 u} over [0, t-t0] stays below 2
        assert all(v <= 2.0 + 1e-6 for _, v in r.evidence["per_t0"])

    def test_growing_system_fails(self, config):
        s = exponential_system(1.0)
        r = barbashin_nu_check(s, "continuous", IDENTITY, 0.5, config)
        assert r.verdict == FAIL
        assert r.witness["value"] > 1e6

    def test_discrete_form(self, systems, config):
        r = barbashin_nu_check(systems["spike"], "discrete", IDENTITY, 0.5, config)
        assert r.verdict == PASS


class TestShiftedEquivalence:
    @pytest.mark.parametrize("name", ["scalar_decay", "bounded_ratio", "spike"])
    def test_nonuniform_tail_matches_shifted_boundedness(self, systems, config, name):
        # the shifted-weight tail test passes exactly when the (-alpha)-shifted
        # system has per-t0 bounded trajectory norms
        alpha = 0.5
        s = systems[name]
        r = datko_check(s, "vector", "continuous", IDENTITY, config, alpha)
        shifted = shift_cocycle(s, -alpha)
        data = ratio_data(shifted)
        bins = {}
        for p in data.probes:
            if p.s == p.t0:
                bins[p.t0] = max(bins.get(p.t0, float("-inf")), p.log_ratio)
        bounded = max(bins.values()) <= math.log(1e6)
        assert (r.verdict == PASS) == bounded, name


class TestNonuniformityWitness:
    def test_spike_node_transients_break_uniform_stability(self, systems, uniform_panels):
        # the node values grow along n, so uniform stability either fails
        # outright or reports a constant beyond 100
        vals = [
            math.exp(log_vector_norm(
                systems["spike"], n + math.exp(-float(n) ** 2), float(n),
                systems["spike"].state_samples[0], (1.0,),
            ))
            for n in (1, 2, 3)
        ]
        assert vals == sorted(vals)
        stab = uniform_panels["spike"].report("unif-stab")
        assert stab.verdict == FAIL or stab.evidence["N"] > 100.0


class TestCombinedPanel:
    def test_spike_is_es_not_ues(self, classifications):
        assert classifications["spike"].label == "ES-not-UES"

    def test_tsint_is_exponentially_stable(self, classifications):
        assert classifications["tsint"].label in ("ES-not-UES", "UES")

    def test_scalar_decay_dominated_by_uniform(self, classifications):
        v = classifications["scalar_decay"]
        assert v.label == "UES"
        nu_fit = v.report("fit-exp-nu")
        assert nu_fit.verdict == PASS
        assert nu_fit.evidence["max_N_of_s"] <= 1e6

    def test_bounded_ratio_keeps_uniform_verdict(self, classifications):
        assert classifications["bounded_ratio"].label == "US-not-UES"

    def test_nonuniform_constants_recorded_per_t0(self, classifications):
        r = classifications["spike"].report("datko-v-nu")
        assert r.verdict == PASS
        assert len(r.evidence["per_t0"]) >= 5

    def test_growing_system_is_unstable(self, config):
        v = run_nonuniform_panel(exponential_system(1.0), config)
        assert v.label == "unstable"

    def test_criteria_ids_complete(self, classifications):
        from skewflow.reports import NONUNIFORM_CRITERIA, UNIFORM_CRITERIA
        ids = [r.criterion_id for r in classifications["spike"].criteria]
        assert ids == list(UNIFORM_CRITERIA) + list(NONUNIFORM_CRITERIA)


# (criteria that do not pass, the system's rate, uniform verdict, combined label, discrepancies)
_LABEL_RULES = [
    ({}, -1.0, "UES", "UES", []),
    ({"datko-op-nu": FAIL}, -1.0, "UES", "UES", []),  # recorded, not counted
    ({"datko-v-nu": FAIL, "barbashin-d-nu": FAIL}, -1.0, "UES", "inconclusive",
     ["uniform panel certified UES but nonuniform criteria failed: datko-v-nu, barbashin-d-nu"]),
    ({"datko-v": FAIL, "decay-d": FAIL, "fit-exp-nu": INCONCLUSIVE}, -1.0, "inconclusive", "inconclusive",
     ["decay fit succeeded but criteria failed with witnesses: datko-v, decay-d"]),
    ({"fit-exp": INCONCLUSIVE, "fit-exp-nu": INCONCLUSIVE}, -1.0, "inconclusive", "inconclusive",
     ["no criterion failed but no decay fit was found"]),
    ({"fit-exp": INCONCLUSIVE, "datko-v": FAIL}, -1.0, "US-not-UES", "ES-not-UES", []),
    ({"fit-exp": INCONCLUSIVE, "datko-v": FAIL, "majorant": FAIL}, -1.0, "US-not-UES", "US-not-UES", []),
    ({"fit-exp": INCONCLUSIVE, "unif-stab": FAIL, "minorant": FAIL, "fit-exp-nu": INCONCLUSIVE}, -1.0,
     "unstable", "stable-only", []),
    ({"fit-exp": INCONCLUSIVE, "unif-stab": FAIL, "fit-exp-nu": INCONCLUSIVE}, 1.0, "unstable", "unstable", []),
]


class TestLabelRules:
    """Every outcome of the uniform verdict and of the combined label, from hand-built reports.

    Both panels' row runners are replaced by one that reports each row as
    the case says, pass unless it is named, so the rules read exactly those
    reports.  Only stable-only against unstable reads the system: a
    decaying one has bounded s-bins, a growing one does not.
    """

    def test_the_cases_reach_every_outcome(self):
        assert {case[2] for case in _LABEL_RULES} == {"UES", "US-not-UES", "unstable", "inconclusive"}
        assert {case[3] for case in _LABEL_RULES} == {
            "UES", "US-not-UES", "ES-not-UES", "stable-only", "unstable", "inconclusive"}

    @pytest.mark.parametrize("verdicts, rate, uniform_verdict, label, discrepancies", _LABEL_RULES)
    def test_label(self, monkeypatch, config, verdicts, rate, uniform_verdict, label, discrepancies):
        def hand_built(rows, selected, echo, reports):
            for cid, _ in rows:
                v = verdicts.get(cid, PASS)
                reports.append(CriterionReport(cid, v, witness={"hand-built": True} if v == FAIL else None))
            return reports

        panels = []
        run_uniform_panel = uniform.run_uniform_panel
        monkeypatch.setattr(uniform, "run_rows", hand_built)
        monkeypatch.setattr(nonuniform, "run_rows", hand_built)
        monkeypatch.setattr(nonuniform, "run_uniform_panel", lambda *a, **k: panels.append(
            run_uniform_panel(*a, **k)) or panels[-1])
        v = run_nonuniform_panel(exponential_system(rate), config)
        assert [r.criterion_id for r in v.criteria] == list(UNIFORM_CRITERIA) + list(NONUNIFORM_CRITERIA)
        assert (panels[0].verdict, v.label, v.discrepancies) == (uniform_verdict, label, discrepancies)
