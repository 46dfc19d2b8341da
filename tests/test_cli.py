"""CLI contract: exit codes, schema validity, determinism, sweeps."""

import csv
import io
import json
from contextlib import redirect_stdout
from importlib import resources

import jsonschema
import pytest

from skewflow.cli import main


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


class TestStarvedRuns:
    """A budget- or horizon-limited band is no detector result, so never a contradiction."""

    @pytest.mark.parametrize("argv", [
        ["--system", "scalar_decay", "--eval-cap", "0"],
        ["--system", "bounded_ratio", "--tmax", "2"],
    ])
    def test_starved_run_is_inconclusive(self, argv):
        code, text = run_cli(["classify", *argv])
        doc = json.loads(text)
        validate(doc)
        assert doc["contradictions"] == []
        assert code == 1


class TestInconclusiveBands:
    def test_short_horizon_names_the_horizon(self):
        code, text = run_cli(["classify", "--system", "bounded_ratio", "--tmax", "2"])
        by_id = {r["criterion_id"]: r for r in json.loads(text)["criteria"]}
        for cid in ("datko-v", "datko-op", "datko-d", "datko-v-nu", "datko-op-nu", "datko-d-nu"):
            assert by_id[cid]["verdict"] == "inconclusive", cid
            assert by_id[cid]["evidence"]["band"] == "horizon-limited probe", cid
