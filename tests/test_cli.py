"""CLI contract: exit codes, schema validity, determinism, sweeps."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from skewflow.cli import main
from skewflow.gallery import GALLERY_NAMES


def run_cli(args, out_path=None):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    text = buf.getvalue()
    if out_path is not None:
        text = out_path.read_text()
    return code, text


def load_schema():
    with resources.files("skewflow").joinpath("schema/report.schema.json").open() as fh:
        return json.load(fh)


SCHEMA = load_schema()
CUSTOM = Path(__file__).parent / "data" / "custom_l2_dim2.json"


def validate(doc):
    jsonschema.validate(doc, SCHEMA)


class TestAxioms:
    def test_gallery_system_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code, text = run_cli(["axioms", "--system", "scalar_decay", "--out", str(out)], out)
        doc = json.loads(text)
        validate(doc)
        assert code == 0
        assert doc["laws"]["ok"]

    def test_invalid_params_exit_2(self):
        code, text = run_cli(["axioms", "--system", "scalar_decay", "--param", "mu=0.5"])
        assert code == 2
        assert "InvalidParams" in json.loads(text)["error"]

    @pytest.mark.parametrize("argv, error", [
        (["classify", "--system", "scalar_decay", "--param", "muu=0.1"],
         "InvalidParams: scalar_decay has no parameter muu; it takes mu"),
        (["sweep", "--system", "diag3", "--sweep", "alphaX=1,2"],
         "InvalidParams: diag3 has no parameter alphaX; it takes alpha1, alpha2, alpha3, l"),
        (["classify", "--system", "tsint", "--param", "mu=1"],
         "InvalidParams: tsint has no parameter mu; it takes none"),
        # a custom system reads no parameter
        (["classify", "--config", str(CUSTOM), "--param", "k=1"],
         "InvalidParams: a custom system has no parameter k; it takes none"),
        (["sweep", "--config", str(CUSTOM), "--sweep", "nosuch=1,2"],
         "InvalidParams: a custom system has no parameter nosuch; it takes none"),
        (["axioms", "--config", str(CUSTOM), "--param", "b=1", "--param", "a=2"],
         "InvalidParams: a custom system has no parameter a, b; it takes none"),
    ])
    def test_a_parameter_the_system_does_not_read_exits_2(self, argv, error):
        code, text = run_cli(argv)
        doc = json.loads(text)
        validate(doc)
        assert code == 2
        assert doc["error"] == error

    @pytest.mark.parametrize("command", ["classify", "growth", "sweep"])
    def test_a_custom_system_rejects_config_file_params(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(CUSTOM.read_text()), "params": {"mu": 2.0}}))
        code, text = run_cli([command, "--config", str(cfg)])
        assert code == 2
        assert json.loads(text)["error"] == "InvalidParams: a custom system has no parameter mu; it takes none"

    def test_time_order_injection_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "scalar_decay", "probes": [[1.0, 2.0, 0.0]]}))
        code, text = run_cli(["axioms", "--config", str(cfg)])
        assert code == 2
        assert "TimeOrderViolation" in json.loads(text)["error"]

    def test_broken_custom_system_fails_laws(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "custom_system": {
                "entries": [[{"kind": "linear", "coef": -1.0}]],
                "scales": [1.5],
            }
        }))
        code, text = run_cli(["axioms", "--config", str(cfg)])
        doc = json.loads(text)
        validate(doc)
        assert code == 1
        assert not doc["laws"]["ok"]


class TestClassify:
    def test_bounded_ratio(self, tmp_path):
        out = tmp_path / "r.json"
        code, text = run_cli(["classify", "--system", "bounded_ratio", "--out", str(out)], out)
        doc = json.loads(text)
        validate(doc)
        assert code == 0
        assert doc["verdict"] == "US-not-UES"
        assert doc["contradictions"] == []

    def test_spike(self, tmp_path):
        out = tmp_path / "r.json"
        code, text = run_cli(["classify", "--system", "spike", "--out", str(out)], out)
        doc = json.loads(text)
        validate(doc)
        assert code == 0
        assert doc["verdict"] == "ES-not-UES"

    def test_criteria_subset_with_gauge(self, tmp_path):
        out = tmp_path / "r.json"
        code, text = run_cli(
            ["classify", "--system", "scalar_decay", "--criteria", "datko-v",
             "--gauge", "pow:2", "--out", str(out)],
            out,
        )
        doc = json.loads(text)
        validate(doc)
        assert code == 0
        reports = {r["criterion_id"]: r["verdict"] for r in doc["criteria"]}
        assert reports == {"datko-v": "pass"}

    def test_unknown_system_exit_2(self):
        code, _ = run_cli(["classify", "--system", "nope"])
        assert code == 2

    def test_criterion_ids_match_wire_contract(self, tmp_path):
        from skewflow.reports import NONUNIFORM_CRITERIA, UNIFORM_CRITERIA
        out = tmp_path / "r.json"
        _, text = run_cli(["classify", "--system", "scalar_decay", "--out", str(out)], out)
        doc = json.loads(text)
        ids = [r["criterion_id"] for r in doc["criteria"]]
        assert ids == list(UNIFORM_CRITERIA) + list(NONUNIFORM_CRITERIA)

    def test_determinism_modulo_timestamp(self, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"r{i}.json"
            code, _ = run_cli(
                ["classify", "--system", "bounded_ratio", "--seed", "7", "--out", str(out)], out
            )
            assert code == 0
            lines = out.read_bytes().split(b"\n")
            outs.append(b"\n".join(ln for ln in lines if b'"timestamp"' not in ln))
        assert outs[0] == outs[1]


class TestGrowthAndGallery:
    def test_growth_report(self, tmp_path):
        out = tmp_path / "g.json"
        code, text = run_cli(["growth", "--system", "diag3", "--out", str(out)], out)
        doc = json.loads(text)
        validate(doc)
        assert code == 0
        assert doc["growth"]["uniform_verified"]

    def test_gallery_list(self):
        code, text = run_cli(["gallery", "list"])
        doc = json.loads(text)
        validate(doc)
        assert code == 0
        assert [e["name"] for e in doc["entries"]] == [
            "shift-metric-demo", "diag3", "scalar_decay", "bounded_ratio", "tsint", "spike",
        ]


class TestSweep:
    def test_diag3_sign_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(
            ["sweep", "--system", "diag3", "--sweep", "alpha1=-1,1",
             "--sweep", "alpha2=-1,1", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        cells = {(r["alpha1"], r["alpha2"]): r["verdict"] for r in rows}
        assert cells[("-1.0", "1.0")] == "UES"
        assert cells[("1.0", "1.0")] != "UES"
        assert cells[("1.0", "-1.0")] != "UES"
        assert cells[("-1.0", "-1.0")] != "UES"

    def test_rows_in_lexicographic_param_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            ["sweep", "--system", "diag3", "--sweep", "alpha2=1,-1",
             "--sweep", "alpha1=-1,1", "--out", str(out)]
        )
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["alpha1"], r["alpha2"]) for r in rows] == [
            ("-1.0", "1.0"), ("-1.0", "-1.0"), ("1.0", "1.0"), ("1.0", "-1.0"),
        ]

    def test_empty_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(["sweep", "--system", "diag3", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows == []

    def test_scalar_decay_rate_monotone_in_mu(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(
            ["sweep", "--system", "scalar_decay", "--sweep", "mu=1.5,2,3", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        nus = [float(r["nu"]) for r in rows]
        assert nus == sorted(nus)

    def test_discrete_tail_overflow_retries_at_halved_horizon(self, tmp_path):
        # datko-d's series overflows at n=88; the halved horizon still shows divergence
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(
            ["sweep", "--system", "shift-metric-demo", "--sweep", "rate=-4", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["verdict"] for r in rows] == ["unstable"]

    def test_no_system_selected_exits_2_as_classify_does(self):
        code, text = run_cli(["sweep", "--sweep", "a=1,2"])
        doc = json.loads(text)
        validate(doc)
        assert code == 2
        assert doc["error"] == "ConfigError: no system selected (use --system or a config file)"

    def test_no_system_and_no_range_exits_2_as_classify_does(self):
        code, text = run_cli(["sweep"])
        doc = json.loads(text)
        validate(doc)
        assert code == 2
        assert doc["error"] == "ConfigError: no system selected (use --system or a config file)"

    def test_custom_system_from_the_config_file_wins_over_system(self):
        # classify picks the custom system of a config file over --system; so does each sweep row,
        # which then rejects the gallery system's parameter
        data = Path(__file__).parent / "data" / "custom_linf_dim2.json"
        code, text = run_cli(["classify", "--config", str(data), "--system", "scalar_decay"])
        assert code == 0 and json.loads(text)["system"] == "custom-linf-dim2"
        code, text = run_cli(["sweep", "--config", str(data), "--system", "scalar_decay", "--sweep", "mu=1.5"])
        assert code == 2
        assert json.loads(text)["error"] == "InvalidParams: a custom system has no parameter mu; it takes none"

    def test_oversized_sweep_rejected(self):
        code, _ = run_cli(
            ["sweep", "--system", "diag3", "--sweep", "alpha1=" + ",".join(["1"] * 40),
             "--sweep", "alpha2=" + ",".join(["1"] * 40)]
        )
        assert code == 2


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "bounded_ratio", "seed": 3}))
        out = tmp_path / "r.json"
        code, text = run_cli(
            ["classify", "--config", str(cfg), "--system", "scalar_decay", "--out", str(out)], out
        )
        doc = json.loads(text)
        assert doc["system"] == "scalar_decay"
        assert doc["config"]["seed"] == 3

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sytsem": "spike"}))
        code, _ = run_cli(["classify", "--config", str(cfg)])
        assert code == 2

    def test_custom_system_classification(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "custom_system": {
                "name": "pure-decay",
                "entries": [[{"kind": "linear", "coef": -1.0}]],
            }
        }))
        out = tmp_path / "r.json"
        code, text = run_cli(["classify", "--config", str(cfg), "--out", str(out)], out)
        doc = json.loads(text)
        assert code == 0
        assert doc["verdict"] == "UES"


class TestGroundTruthContradiction:
    def test_mislabeled_custom_system_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "custom_system": {
                "name": "mislabeled",
                "entries": [[{"kind": "linear", "coef": -1.0}]],
                "ground_truth": "US-not-UES",
            }
        }))
        out = tmp_path / "r.json"
        code, text = run_cli(["classify", "--config", str(cfg), "--out", str(out)], out)
        doc = json.loads(text)
        validate(doc)
        assert code == 3
        assert doc["contradictions"]

    @pytest.mark.parametrize("gauge", ["sat:1", "pow:2"])
    def test_the_tag_is_judged_under_the_identity_gauge(self, gauge):
        # a bounded gauge bounds every tail, so datko-v cannot fail under it; this once exited 3
        code, text = run_cli(["classify", "--system", "spike", "--gauge", gauge])
        doc = json.loads(text)
        validate(doc)
        assert doc["contradictions"] == [] and code != 3

    def test_a_wrong_tag_is_caught_under_any_gauge(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_system": {
            "name": "mislabeled", "entries": [[{"kind": "linear", "coef": -1.0}]], "ground_truth": "ES-not-UES"}}))
        code, text = run_cli(["classify", "--config", str(cfg), "--gauge", "sat:1"])
        assert code == 3
        assert json.loads(text)["contradictions"] == ["tag ES-not-UES but datko-v did not fail with a witness"]


class TestConfigValidation:
    @pytest.mark.parametrize("flag, value", [
        ("--delta-max", "1"),
        ("--grid-step", "0"),
        ("--grid-h", "0"),
        ("--tmax", "-5"),
        ("--tmax", "nan"),
        ("--tol", "inf"),
        ("--ncap", "inf"),
    ])
    def test_bad_flag_exits_2_with_error_document(self, flag, value):
        code, text = run_cli(["classify", "--system", "scalar_decay", flag, value])
        assert code == 2
        doc = json.loads(text)
        validate(doc)
        assert doc["error"].startswith("ConfigError: ")

    @pytest.mark.parametrize("criteria", ["bogus", "datko-v,bogus"])
    def test_unknown_criterion_exits_2(self, criteria):
        code, text = run_cli(["classify", "--system", "scalar_decay", "--criteria", criteria])
        assert code == 2
        doc = json.loads(text)
        validate(doc)
        assert doc["error"].startswith("ConfigError: unknown criteria ['bogus']")
        assert "datko-v-nu" in doc["error"]

    @pytest.mark.parametrize("scales", [[0.0], [-1.0], [float("inf")], 1.0])
    def test_custom_scales_not_a_list_of_positive_finite_numbers_exit_2(self, tmp_path, scales):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_system": {
            "entries": [[{"kind": "linear", "coef": -1.0}]], "scales": scales,
        }}))
        code, text = run_cli(["classify", "--config", str(cfg)])
        assert code == 2
        doc = json.loads(text)
        validate(doc)
        assert doc["error"].startswith("InvalidParams: 'scales'")

    def test_non_numeric_file_value_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "scalar_decay", "tmax": "long"}))
        code, text = run_cli(["classify", "--config", str(cfg)])
        assert code == 2
        assert json.loads(text)["error"].startswith("ConfigError: ")

    @pytest.mark.parametrize("doc, error", [
        ({"system": "scalar_decay", "criteria": ["datko-v"]},
         "ConfigError: criteria must be a comma-separated string"),
        ({"system": "scalar_decay", "params": [1]},
         "ConfigError: params must be an object"),
        ({"custom_system": {"entries": [[{"kind": "linear", "coef": "x"}]]}},
         "InvalidParams: 'coef' must be a finite number"),
        ({"custom_system": {"entries": [[{"kind": "linear", "coef": 10**400}]]}},
         "InvalidParams: 'coef' must be a finite number"),
        ({"custom_system": {"entries": [[{"kind": "linear", "coef": True}]]}},
         "InvalidParams: 'coef' must be a finite number"),
    ], ids=["criteria-list", "params-list", "coef-string", "coef-huge-int", "coef-bool"])
    def test_wrong_json_type_in_config_file_exits_2(self, tmp_path, doc, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, text = run_cli(["classify", "--config", str(cfg)])
        assert code == 2
        doc = json.loads(text)
        validate(doc)
        assert doc["error"].startswith(error)


class TestMalformedEntries:
    """A custom system's entries must be a nonempty list of lists of term objects."""

    @pytest.mark.parametrize("entries", [[1], [[1]], "ab"], ids=["not-lists", "term-not-object", "string"])
    def test_malformed_entries_exit_2(self, tmp_path, entries):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"custom_system": {"entries": entries}}))
        code, text = run_cli(["classify", "--config", str(cfg)])
        assert code == 2
        doc = json.loads(text)
        validate(doc)
        assert doc["error"].startswith("InvalidParams: ")

    def test_an_unforeseen_error_is_a_json_error_document_with_exit_2(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("no check foresaw this")

        monkeypatch.setattr("skewflow.cli.run_nonuniform_panel", broken)
        code, text = run_cli(["classify", "--system", "scalar_decay"])
        assert code == 2
        doc = json.loads(text)
        validate(doc)
        assert doc["error"] == "ZeroDivisionError: no check foresaw this"


INTEGRAL_CRITERIA = (
    "datko-v", "datko-op", "datko-d", "barbashin-v", "barbashin-op", "barbashin-d",
    "datko-v-nu", "datko-op-nu", "datko-d-nu", "barbashin-nu", "barbashin-d-nu",
)


def _by_id(text) -> dict:
    return {r["criterion_id"]: r for r in json.loads(text)["criteria"]}


def _close(a, b) -> bool:
    """a == b, with floats equal to a relative 1e-9."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9)
    return a == b


class TestStarvedRuns:
    """A budget- or horizon-limited band is no detector result, so never a contradiction."""

    @pytest.mark.parametrize("argv", [
        ["--system", "scalar_decay", "--eval-cap", "0"],
        ["--system", "bounded_ratio", "--tmax", "2"],
        # a budget-shortened tail read as divergence once made these exit 3
        ["--system", "shift-metric-demo", "--eval-cap", "100"],
        ["--system", "spike", "--eval-cap", "2000"],
    ])
    def test_starved_run_is_inconclusive(self, argv):
        code, text = run_cli(["classify", *argv])
        doc = json.loads(text)
        validate(doc)
        assert doc["contradictions"] == []
        assert code == 1

    def test_the_evaluation_cap_bounds_the_discrete_sums(self):
        # each sum counts its terms against the cap; they once ran in full and passed
        got = _by_id(run_cli(["classify", "--system", "scalar_decay", "--eval-cap", "0"])[1])
        for cid in ("datko-d", "barbashin-d", "datko-d-nu", "barbashin-d-nu"):
            assert got[cid]["verdict"] == "inconclusive", cid
            assert got[cid]["evidence"]["band"] == "budget-limited probe", cid

    @pytest.fixture(scope="class")
    def uncapped(self):
        return {name: _by_id(run_cli(["classify", "--system", name])[1]) for name in GALLERY_NAMES}

    @pytest.mark.parametrize("cap", [0, 100, 500, 2000])
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_a_starved_budget_never_invents_a_verdict(self, uncapped, name, cap):
        """Each integral criterion reports the default budget's verdict and witness, or a budget-limited probe."""
        got = _by_id(run_cli(["classify", "--system", name, "--eval-cap", str(cap)])[1])
        for cid in INTEGRAL_CRITERIA:
            r, want = got[cid], uncapped[name][cid]
            if r["evidence"].get("band") == "budget-limited probe":
                assert (r["verdict"], r["witness"]) == ("inconclusive", None), cid
            else:
                assert (r["verdict"], r["witness"]) == (want["verdict"], want["witness"]), cid

    @pytest.mark.parametrize("tmax", [3, 5, 10, 20])
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_a_short_horizon_never_invents_a_verdict(self, uncapped, name, tmax):
        """Each integral criterion reports the default horizon's verdict and witness, or a horizon-limited probe.

        A tail left unsettled at a --tmax below the system's tail cap was
        once a divergence witness, and made four gallery systems exit 3.
        """
        code, text = run_cli(["classify", "--system", name, "--tmax", str(tmax)])
        got = _by_id(text)
        assert code in (0, 1) and json.loads(text)["contradictions"] == []
        for cid in INTEGRAL_CRITERIA:
            r, want = got[cid], uncapped[name][cid]
            if r["evidence"].get("band") == "horizon-limited probe":
                assert (r["verdict"], r["witness"]) == ("inconclusive", None), cid
            else:  # the same probe; a tail settled before a shorter horizon may differ in its last digits
                assert r["verdict"] == want["verdict"] and _close(r["witness"], want["witness"]), cid


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLargePowerGauge:
    """A gauge value beyond float range makes its probes overflow-limited; it never ends the run with exit 2 or warns."""

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_pow_1e6_gives_a_report(self, name):
        # the Barbashin bound R(N_cap ||v*||) and the literal thresholds R(t0) once raised OverflowError
        code, text = run_cli(["classify", "--system", name, "--gauge", "pow:1e6"])
        doc = json.loads(text)
        validate(doc)
        assert code != 2 and "error" not in doc
        barbashin = _by_id(text)["barbashin-v"]
        assert (barbashin["verdict"], barbashin["witness"]) == ("inconclusive", None)
        assert barbashin["evidence"]["band"] == "overflow-limited probe"


class TestInconclusiveBands:
    def test_short_horizon_names_the_horizon(self):
        code, text = run_cli(["classify", "--system", "bounded_ratio", "--tmax", "2"])
        by_id = {r["criterion_id"]: r for r in json.loads(text)["criteria"]}
        for cid in ("datko-v", "datko-op", "datko-d", "datko-v-nu", "datko-op-nu", "datko-d-nu"):
            assert by_id[cid]["verdict"] == "inconclusive", cid
            assert by_id[cid]["evidence"]["band"] == "horizon-limited probe", cid


def test_nan_log_ratios_leave_stderr_empty():
    """A coef of -1e308 gives nan log ratios; the run still exits 0 and writes nothing to stderr."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "skewflow.cli", "classify", "--config",
         str(root / "tests" / "data" / "custom_coef_neg1e308.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


class TestParserIsBuiltOnce:
    """``main`` builds its argparse parser on its first call and reuses it: no call sees another's values."""

    def test_one_parser_serves_every_call(self):
        from skewflow.cli import build_parser
        assert build_parser() is build_parser()

    def test_consecutive_calls_share_no_values(self, monkeypatch):
        import skewflow.cli as cli
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "classify", lambda args: seen.append(args) or 0)
        monkeypatch.setitem(cli.COMMANDS, "sweep", lambda args: seen.append(args) or 0)
        calls = [
            ["classify", "--system", "diag3", "--param", "l=1.5", "--param", "alpha1=-1"],
            ["classify", "--system", "diag3"],
            ["sweep", "--system", "diag3", "--sweep", "alpha1=-1,1", "--param", "l=2"],
            ["sweep", "--system", "diag3"],
            ["classify", "--system", "spike", "--param", "l=3"],
        ]
        for argv in calls:
            assert main(argv) == 0
        # argparse copies an append default before appending, so the shared [] stays empty
        assert [a.param for a in seen] == [["l=1.5", "alpha1=-1"], [], ["l=2"], [], ["l=3"]]
        assert [getattr(a, "sweep", None) for a in seen] == [None, None, ["alpha1=-1,1"], [], None]
        assert [a.system for a in seen] == ["diag3", "diag3", "diag3", "diag3", "spike"]

    def test_a_usage_error_leaves_the_parser_working(self):
        with redirect_stdout(io.StringIO()):
            assert main(["classify", "--tmax", "not-a-number"]) == 2
            assert main(["nosuch-command"]) == 2
        code, text = run_cli(["gallery", "list"])
        assert code == 0 and json.loads(text)["exit_code"] == 0
