"""Nonuniform criteria: s-dependent fits, majorant, shifted-weight tests."""

import dataclasses
import io
import itertools
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from skewflow import RunConfig, cli, nonuniform
from skewflow.gauges import make_gauge
from skewflow.nonuniform import (
    run_nonuniform_panel,
    test_barbashin_nonuniform as barbashin_nu_check,
    test_decaying_majorant as majorant_check,
)
from skewflow.probes import ratio_data
from skewflow.reports import FAIL, INCONCLUSIVE, NONUNIFORM_CRITERIA, PASS, UNIFORM_CRITERIA, CriterionReport
from skewflow.uniform import fit_decay
from skewflow.uniform import test_datko as datko_check

from conftest import exponential_system, log_vector_norm, nonuniform_fit, shift_cocycle, uniform_fit

IDENTITY = make_gauge("identity")


class TestNonuniformFit:
    def test_tsint_fits_with_rate_at_least_one(self, ratio_cache):
        fit = nonuniform_fit(ratio_cache["tsint"])
        assert fit is not None
        assert fit.nu >= 0.5
        # the envelope constant e^{2s} stays under the nonuniform cap
        assert max(fit.N_of_s.values()) <= 1e6

    def test_spike_fits_with_rate_at_least_one(self, ratio_cache):
        fit = nonuniform_fit(ratio_cache["spike"])
        assert fit is not None
        assert fit.nu >= 1.0
        assert fit.residual <= 1e-9

    def test_spike_constants_reflect_node_heights(self, ratio_cache):
        fit = nonuniform_fit(ratio_cache["spike"])
        # the s=5 bin carries the e^{10} node transient
        assert fit.N_of_s[5.0] >= math.exp(10.0) * 0.9

    def test_uniform_case_embeds(self):
        s = exponential_system(-1.0)
        fit = nonuniform_fit(ratio_data(s))
        assert fit.nu == 1.0
        assert max(fit.N_of_s.values()) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_ratio_inconclusive(self, ratio_cache):
        assert nonuniform_fit(ratio_cache["bounded_ratio"]) is None

    def test_embedding_bounds_uniform_constant(self, ratio_cache):
        # at the uniform fit's own rate, every per-bin constant is below the
        # uniform constant (same probes, same ladder rung)
        for name, data in ratio_cache.items():
            fit = uniform_fit(data)
            if fit is None:
                continue
            nf = fit_decay(data, data.s, 1e6, ladder=(fit.nu,))
            assert nf is not None, name
            assert max(nf.N_of_s.values()) <= fit.N + 1e-9, name

    def test_the_uniform_fit_is_the_fit_of_one_bin(self, ratio_cache):
        for name, data in ratio_cache.items():
            fit = uniform_fit(data)
            assert fit is None or list(fit.N_of_s) == [0.0] and fit.N == fit.N_of_s[0.0], name

    def test_a_nan_constant_admits_no_rate(self):
        # the first probe of the s = 0.5 bin has a nan ratio: that bin admits no rate, so the fit fails
        s = exponential_system(-1.0)
        data = ratio_data(s)
        first = int(np.flatnonzero(data.s == 0.5)[0])
        log_ratio = data.log_ratio.copy()
        log_ratio[first] = math.nan
        nan_bin = dataclasses.replace(data, log_ratio=log_ratio)
        assert nonuniform_fit(data) is not None
        assert nonuniform_fit(nan_bin) is None
        assert uniform_fit(nan_bin) is not None  # one bin: its first probe is finite, and a later nan never wins


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
    def test_spike_node_transients_break_uniform_stability(self, systems, classifications):
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
        stab = classifications["spike"].report("unif-stab")
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


# (criteria that do not pass, the system's rate, combined label, discrepancies)
_LABEL_RULES = [
    ({}, -1.0, "UES", []),
    ({"datko-op-nu": FAIL}, -1.0, "UES", []),  # recorded, not counted
    ({"datko-v-nu": FAIL, "barbashin-d-nu": FAIL}, -1.0, "inconclusive",
     ["uniform panel certified UES but nonuniform criteria failed: datko-v-nu, barbashin-d-nu"]),
    ({"datko-v": FAIL, "decay-d": FAIL, "fit-exp-nu": INCONCLUSIVE}, -1.0, "inconclusive",
     ["decay fit succeeded but criteria failed with witnesses: datko-v, decay-d"]),
    ({"fit-exp": INCONCLUSIVE, "fit-exp-nu": INCONCLUSIVE}, -1.0, "inconclusive",
     ["no criterion failed but no decay fit was found"]),
    ({"fit-exp": INCONCLUSIVE, "datko-v": FAIL}, -1.0, "ES-not-UES", []),
    ({"fit-exp": INCONCLUSIVE, "datko-v": FAIL, "majorant": FAIL}, -1.0, "US-not-UES", []),
    ({"fit-exp": INCONCLUSIVE, "unif-stab": FAIL, "minorant": FAIL, "fit-exp-nu": INCONCLUSIVE}, -1.0,
     "stable-only", []),
    ({"fit-exp": INCONCLUSIVE, "unif-stab": FAIL, "fit-exp-nu": INCONCLUSIVE}, 1.0, "unstable", []),
]


class TestLabelRules:
    """Every combined label, from hand-built reports.

    The panel's row runner is replaced by one that reports each row as the
    case says, pass unless it is named, so the label rules read exactly
    those reports.  Only stable-only against unstable reads the system: a
    decaying one has bounded s-bins, a growing one does not.
    """

    def test_the_cases_reach_every_outcome(self):
        assert {case[2] for case in _LABEL_RULES} == {
            "UES", "US-not-UES", "ES-not-UES", "stable-only", "unstable", "inconclusive"}

    @pytest.mark.parametrize("verdicts, rate, label, discrepancies", _LABEL_RULES)
    def test_label(self, monkeypatch, config, verdicts, rate, label, discrepancies):
        def hand_built(rows, selected, echo, reports):
            for cid, _ in rows:
                v = verdicts.get(cid, PASS)
                reports.append(CriterionReport(cid, v, witness={"hand-built": True} if v == FAIL else None))

        monkeypatch.setattr(nonuniform, "run_rows", hand_built)
        v = run_nonuniform_panel(exponential_system(rate), config)
        assert [r.criterion_id for r in v.criteria] == list(UNIFORM_CRITERIA) + list(NONUNIFORM_CRITERIA)
        assert (v.label, v.discrepancies) == (label, discrepancies)


def _chains(reports, bounded):
    """The label and discrepancies by the two if/elif chains that LABEL_RULES and DISCREPANCY_RULES replaced:
    the uniform panel's verdict, then the combined label read from it."""
    ues_criteria = tuple(cid for cid in UNIFORM_CRITERIA if cid != "unif-stab")
    counted = tuple(cid for cid in NONUNIFORM_CRITERIA if cid != "datko-op-nu")
    by_id = {r.criterion_id: r for r in reports}
    discrepancies = []
    fails = [cid for cid in ues_criteria if cid in by_id and by_id[cid].verdict == FAIL]
    fit_ok = by_id["fit-exp"].verdict == PASS
    stab_ok = by_id["unif-stab"].verdict == PASS
    if fit_ok and not fails:
        verdict = "UES"
    elif fit_ok:
        verdict = "inconclusive"
        discrepancies.append("decay fit succeeded but criteria failed with witnesses: " + ", ".join(fails))
    elif fails:
        verdict = "US-not-UES" if stab_ok else "unstable"
    elif stab_ok:
        verdict = "inconclusive"
        discrepancies.append("no criterion failed but no decay fit was found")
    else:
        verdict = "unstable"

    counted_fails = [cid for cid in counted if cid in by_id and by_id[cid].verdict == FAIL]
    nonuniform_ok = by_id["fit-exp-nu"].verdict == PASS and not counted_fails
    if verdict == "UES":
        if counted_fails:
            label = "inconclusive"
            discrepancies.append("uniform panel certified UES but nonuniform criteria failed: "
                                 + ", ".join(counted_fails))
        else:
            label = "UES"
    elif nonuniform_ok:
        label = "ES-not-UES"
    elif verdict == "US-not-UES":
        label = "US-not-UES"
    elif verdict == "unstable":
        label = "stable-only" if bounded else "unstable"
    else:
        label = "inconclusive"
    return label, discrepancies


def _reports_with(facts):
    """A full panel's reports that hold the six facts the label reads; datko-op-nu, which is not counted, fails."""
    fit_ok, ues_fail, stab_ok, nfit_ok, counted_fail, _ = facts
    verdicts = {"fit-exp": PASS if fit_ok else INCONCLUSIVE, "unif-stab": PASS if stab_ok else FAIL,
                "fit-exp-nu": PASS if nfit_ok else INCONCLUSIVE, "datko-op-nu": FAIL}
    if ues_fail:
        verdicts.update({"datko-v": FAIL, "barbashin-d": FAIL})
    if counted_fail:
        verdicts.update({"majorant": FAIL, "barbashin-nu": FAIL})
    return [CriterionReport(cid, verdicts.get(cid, PASS), witness={} if verdicts.get(cid) == FAIL else None)
            for cid in UNIFORM_CRITERIA + NONUNIFORM_CRITERIA]


# (deciding LABEL_RULES row, label) of the 11 rows of perfbench's sweep-mixed workload: rate=-1,0,0.5,1,2
# without and with --eval-cap 2000, then rate=-4
ROWS = [(4, "unstable"), (2, "US-not-UES"), (0, "UES"), (0, "UES"), (0, "UES")] * 2 + [(4, "unstable")]


class TestLabelTables:
    @pytest.mark.parametrize("facts", list(itertools.product((False, True), repeat=6)))
    def test_the_tables_give_the_chains_label_and_discrepancies(self, facts):
        reports = _reports_with(facts)
        row, label, discrepancies = nonuniform.derive(reports, facts[-1])
        assert (label, discrepancies) == _chains(reports, facts[-1])
        assert nonuniform.LABEL_RULES[row][1] == label

    def test_the_last_row_matches_everything(self):
        assert nonuniform.LABEL_RULES[-1][0] == (None,) * 6

    @staticmethod
    def deciding_rows(monkeypatch):
        rows, derive = [], nonuniform.derive
        monkeypatch.setattr(nonuniform, "derive", lambda *a: rows.append(derive(*a)) or rows[-1])
        return rows

    def test_the_deciding_row_of_each_gallery_system(self, monkeypatch, systems, config):
        rows = self.deciding_rows(monkeypatch)
        labels = [run_nonuniform_panel(s, config).label for s in systems.values()]
        assert dict(zip(systems, [(row, label) for row, label, _ in rows])) == {
            "shift-metric-demo": (0, "UES"), "diag3": (0, "UES"), "scalar_decay": (0, "UES"),
            "bounded_ratio": (2, "US-not-UES"), "tsint": (1, "ES-not-UES"), "spike": (1, "ES-not-UES")}
        assert labels == [label for _, label, _ in rows]

    def test_the_deciding_row_of_each_sweep_mixed_row(self, monkeypatch):
        rows = self.deciding_rows(monkeypatch)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # every row computed in this process
        for extra in ((), ("--eval-cap", "2000")):
            with redirect_stdout(io.StringIO()):
                assert cli.main(["sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2",
                                 *extra]) == cli.EXIT_OK
        with redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--system", "shift-metric-demo", "--sweep", "rate=-4"]) == cli.EXIT_OK
        assert [(row, label) for row, label, _ in rows] == ROWS
