"""Byte-identity guard: the CLI outputs that must not move, pinned by digest.

Each entry is the sha256 of a call's stdout with the ``timestamp`` value
blanked.  A speed-up or refactor must leave these outputs byte-identical;
a change that moves them on purpose re-records the digests with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes which outputs moved and why.
"""

import hashlib
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from skewflow.cli import main

GOLDEN = {
    ("classify", "--system", "shift-metric-demo"):
        "f967474318b382d53cc916adce9de10688b77ad24db99bdb802795c289806133",
    ("classify", "--system", "diag3"):
        "b5c345095c3f4eab36e7b980a89640ac90cef283c78c19b46030e8e27cfb5a66",
    ("classify", "--system", "scalar_decay"):
        "6f2dd77bb889b6d7c1a0faf2fcd015814d157779b6fcfd70b31544a516dc1604",
    ("classify", "--system", "bounded_ratio"):
        "04f74bc8f040ae75e776adc589d01ef199813154dcf372addf0cd7d86d1e5a2b",
    ("classify", "--system", "tsint"):
        "81ccc207c339f31dcf889cbe5a6452a0600639d2a4a7529c4e7f291005658869",
    ("classify", "--system", "spike"):
        "f1e69e3fb5ccf8df2c2021d956d39b4317c13696652384245b932fdf2f8266a3",
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2"):
        "9d71f5c5a23ed7b52f00105c6b46d8990f912948f1be1bdcd0a73dbe37b8ec49",
    ("gallery", "list"):
        "ae9dda9fc5ae2c6e7cc4145cf5a325c56c84335314d2c657d86f8df4492c639b",
    ("axioms", "--system", "diag3"):
        "b3ad1518d4dc14c7281e4b83f4b826a0556a722f1a9319cebf25fb080870bb42",
    ("growth", "--system", "tsint", "--omega-const"):
        "e34b9e9a5e49832c498945aa8086f0656165c83ed5090cf5158eea9c13421a64",
    # every flag that reaches the config echo
    ("classify", "--system", "scalar_decay", "--criteria", "fit-exp,datko-v,barbashin-d",
     "--gauge", "pow:2", "--grid-h", "8", "--tmax", "50", "--tol", "1e-7", "--ncap", "500",
     "--eval-cap", "200000", "--delta-max", "5", "--param", "mu=3"):
        "82ca2d4d702465c3dd99ac46299b726ecd01c9ec656720ff2be97a63d6aa9532",
    ("sweep", "--system", "diag3", "--sweep", "alpha1=-1,1", "--param", "l=1.5"):
        "246af11f3b6b3267e1e729a6e7c660d96dc6f883181f729cf32b994a9b741ea1",
    # the exit-2 error document
    ("classify", "--system", "nosuch"):
        "fdaa7106e6ed27a6d9237d1af03f81678655971dfc6467054b2582a39669d290",
    # quadrature's budget path (the sweep rows match the uncapped sweep's)
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2",
     "--eval-cap", "2000"):
        "9d71f5c5a23ed7b52f00105c6b46d8990f912948f1be1bdcd0a73dbe37b8ec49",
    # the overflow path: every horizon halving of the discrete tails
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-4"):
        "99a6c42b0047832233060d304c874d2bdd6c9a3668f3ed2b8ff62254cdc7c954",
    # a starved run: every integral is budget-limited
    ("classify", "--system", "scalar_decay", "--eval-cap", "0"):
        "6f34a6c97ebb0c6c9fb4788f27be2d202bb115965f0ff9702fa948330e0d08f3",
    # custom systems: the log-sum-exp path with scale 2 (L2) and the max path (Linf)
    ("classify", "--config", "tests/data/custom_l2_dim2.json"):
        "33795c4022f4e85b4b63d7da9c24ef280e44782102bfe1b70b159ed5c995860b",
    ("classify", "--config", "tests/data/custom_l2_dim3.json"):
        "7afc6489fedce9fb26bec03851dceb15511f8060dfbbb79505b8aaaf8bd6d707",
    ("classify", "--config", "tests/data/custom_linf_dim2.json"):
        "148b6a0111387c667662be218387f9974674b14633c88ecf6938a272a615dd67",
    ("classify", "--config", "tests/data/custom_linf_dim3.json"):
        "fb1333a7f5e2fcf696cdc534d9845e14160b8484c63ec4e59cef41bce20d9dbb",
    # the saturating and power gauges inside every integral
    ("classify", "--system", "scalar_decay", "--gauge", "sat:1"):
        "3c395bc7e8f0a14baefbf92aa27b7a37fcf483af0fa3e71b7f489816f3e99bc2",
    ("classify", "--system", "diag3", "--gauge", "pow:2"):
        "ecd8328e88ef96fd53a3e3735fce78cb180943049ece0b295e501bac6ef3179b",
    # the budget trips in the middle of a tail and the horizon is halved; this pins the
    # output as it stands, with the fail witness of a budget-shortened tail (ROADMAP item 3)
    ("classify", "--system", "spike", "--eval-cap", "500"):
        "43cd79d56927c047ab4c5dd0de2505fce20d3b6d0a545e23db202473fcc58ffb",
}

# config paths in the calls above are relative to the repository root
ROOT = Path(__file__).resolve().parent.parent

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def output_digest(argv) -> str:
    argv = [str(ROOT / a) if a.startswith("tests/data/") else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv)
    text = _TIMESTAMP.sub('"timestamp": ""', buf.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_is_byte_identical(argv):
    digest = output_digest(argv)
    assert digest == GOLDEN[argv], (
        f"`skewflow {' '.join(argv)}` output changed (sha256 {digest}). If the change "
        "is intended, re-record with `PYTHONPATH=src python tests/test_golden.py` "
        "and name the moved outputs in the change notes."
    )


if __name__ == "__main__":
    for argv in GOLDEN:
        print(f"    {argv!r}:\n        {output_digest(argv)!r},")
