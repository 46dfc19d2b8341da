"""A fuzz of the CLI contract: ``classify`` over gallery and small custom systems, with varied run settings.

Every call exits 0, 1, 2 or 3 and prints a document that validates against
the report schema; an exit 2 names a ``SkewflowError`` subclass; and a tagged
gallery system under the identity gauge never exits 3 when only ``--tmax``
and ``--eval-cap`` vary.  The examples come from the derandomized ``ci``
profile, so each run draws the same calls.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from importlib import resources

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow import errors
from skewflow.cli import main
from skewflow.gallery import GALLERY_NAMES, DeclarativeCocycle

SCHEMA = json.loads(resources.files("skewflow").joinpath("schema/report.schema.json").read_text())


def _subclasses(cls):
    return {cls.__name__}.union(*(_subclasses(c) for c in cls.__subclasses__()))


SKEWFLOW_ERRORS = _subclasses(errors.SkewflowError)

COEFS = st.one_of(st.sampled_from([-1e308, -4.0, -1.0, -0.5, 0.0, 0.25, 1.0, 1e308]),
                  st.floats(-5.0, 5.0, allow_nan=False))
TERM = st.fixed_dictionaries({"kind": st.sampled_from(DeclarativeCocycle.KINDS), "coef": COEFS})
CUSTOM = st.fixed_dictionaries({"entries": st.lists(st.lists(TERM, min_size=1, max_size=2), min_size=1, max_size=3),
                                "norm": st.sampled_from(["L1", "L2", "Linf"])})
TMAX = st.one_of(st.sampled_from([0.5, 2.0, 10.0, 100.0]), st.floats(0.1, 150.0))
EVAL_CAP = st.one_of(st.sampled_from([0, 1, 50, 2000]), st.integers(0, 100_000))
TOL = st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.5])
GAUGE = st.sampled_from(["identity", "pow:2", "pow:0.5", "sat:1", "pow:1e6", "sat:1e-300"])
FUZZ = settings(settings.get_profile("ci"), max_examples=60, deadline=None)


def classify(argv, custom=None) -> tuple:
    """(exit code, stdout) of ``classify`` with argv, on a custom system's config file when one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        if custom is not None:
            path = os.path.join(tmp, "custom.json")
            with open(path, "w") as fh:
                json.dump({"custom_system": custom}, fh)
            argv = ["--config", path, *argv]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["classify", *argv])
    return code, buf.getvalue()


def check_contract(code, text):
    assert code in (0, 1, 2, 3)
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    assert doc["exit_code"] == code
    if code == 2:
        assert doc["error"].split(":", 1)[0] in SKEWFLOW_ERRORS, doc["error"]


@FUZZ
@given(system=st.one_of(st.sampled_from(GALLERY_NAMES), CUSTOM), tmax=TMAX, eval_cap=EVAL_CAP, tol=TOL,
       gauge=GAUGE)
def test_classify_keeps_the_cli_contract(system, tmax, eval_cap, tol, gauge):
    argv = ["--tmax", repr(tmax), "--eval-cap", str(eval_cap), "--tol", repr(tol), "--gauge", gauge]
    if isinstance(system, str):
        check_contract(*classify(["--system", system, *argv]))
    else:
        check_contract(*classify(argv, custom=system))


@settings(FUZZ, max_examples=30)
@given(system=st.sampled_from(GALLERY_NAMES), tmax=TMAX, eval_cap=EVAL_CAP)
def test_a_short_horizon_or_budget_never_contradicts_a_tag(system, tmax, eval_cap):
    code, text = classify(["--system", system, "--tmax", repr(tmax), "--eval-cap", str(eval_cap)])
    check_contract(code, text)
    assert code != 3, json.loads(text)["contradictions"]
