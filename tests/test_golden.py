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
    # the time-invariant systems share a settled tail between starting times, and one
    # adjoint integral between (t, t0) pairs of the same length: last digits of their
    # per_t0 tables moved once when that sharing came in
    ("classify", "--system", "shift-metric-demo"):
        "12c2100eb244a8e95ebd0080a9508408430a0ee1ae624f5338b2a329bd463ae3",
    ("classify", "--system", "diag3"):
        "6feb88431e3017a5a20bc7e0781a46ba2900083c9d97268d0cfc3f435bd54e88",
    ("classify", "--system", "scalar_decay"):
        "1624319f7de2d76126972bc937cfd10c7bde9d9685950c60531300b64715fc2a",
    ("classify", "--system", "bounded_ratio"):
        "8df8b5ac923b19e0e3e9a42d70e907e2837635e808d4d3481dca44c104e7a65e",
    ("classify", "--system", "tsint"):
        "81ccc207c339f31dcf889cbe5a6452a0600639d2a4a7529c4e7f291005658869",
    ("classify", "--system", "spike"):
        "f1e69e3fb5ccf8df2c2021d956d39b4317c13696652384245b932fdf2f8266a3",
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2"):
        "9d71f5c5a23ed7b52f00105c6b46d8990f912948f1be1bdcd0a73dbe37b8ec49",
    ("gallery", "list"):
        "ae9dda9fc5ae2c6e7cc4145cf5a325c56c84335314d2c657d86f8df4492c639b",
    # re-recorded when core.cocycle_matrix moved from numpy's exp to math.exp per entry:
    # the old digest held only where numpy's AVX-512 exp ran; this one holds on every CPU;
    # and again when the report gained the time-invariance deviation of a declared system,
    # and once more for the state-independence deviation, null here: diag3 reads its state
    ("axioms", "--system", "diag3"):
        "bd683635ba64e2ae03c9278dfe8b597a3313c15def005b253f5b2790856a8da5",
    ("growth", "--system", "tsint", "--omega-const"):
        "e34b9e9a5e49832c498945aa8086f0656165c83ed5090cf5158eea9c13421a64",
    # every flag that reaches the config echo
    ("classify", "--system", "scalar_decay", "--criteria", "fit-exp,datko-v,barbashin-d",
     "--gauge", "pow:2", "--grid-h", "8", "--tmax", "50", "--tol", "1e-7", "--ncap", "500",
     "--eval-cap", "200000", "--delta-max", "5", "--param", "mu=3"):
        "5ef1e5449f2618fdd77319a85de57ee7a4b40b8e6da2c538ca14dfd0702d2772",
    ("sweep", "--system", "diag3", "--sweep", "alpha1=-1,1", "--param", "l=1.5"):
        "246af11f3b6b3267e1e729a6e7c660d96dc6f883181f729cf32b994a9b741ea1",
    # the exit-2 error document
    ("classify", "--system", "nosuch"):
        "fdaa7106e6ed27a6d9237d1af03f81678655971dfc6467054b2582a39669d290",
    # quadrature's budget path: the labels match the uncapped sweep's, and the tails the
    # budget cut short count as inconclusive, not as fails
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-1,0,0.5,1,2",
     "--eval-cap", "2000"):
        "f4ca32357be897446de925d9ed4c40ebc32c537bc3c6481ebc7cfbf5b264b526",
    # the overflow path: every horizon halving of the discrete tails
    ("sweep", "--system", "shift-metric-demo", "--sweep", "rate=-4"):
        "99a6c42b0047832233060d304c874d2bdd6c9a3668f3ed2b8ff62254cdc7c954",
    # a starved run: every integral is budget-limited, the discrete sums too (each term
    # counts as one evaluation)
    ("classify", "--system", "scalar_decay", "--eval-cap", "0"):
        "bc1755ccfcc5fa6a38666e49706c1a42c06394a5ea9c12efe39960636c4e095e",
    # custom systems: the log-sum-exp path with scale 2 (L2) and the max path (Linf)
    ("classify", "--config", "tests/data/custom_l2_dim2.json"):
        "33795c4022f4e85b4b63d7da9c24ef280e44782102bfe1b70b159ed5c995860b",
    ("classify", "--config", "tests/data/custom_l2_dim3.json"):
        "7afc6489fedce9fb26bec03851dceb15511f8060dfbbb79505b8aaaf8bd6d707",
    ("classify", "--config", "tests/data/custom_linf_dim2.json"):
        "148b6a0111387c667662be218387f9974674b14633c88ecf6938a272a615dd67",
    ("classify", "--config", "tests/data/custom_linf_dim3.json"):
        "fb1333a7f5e2fcf696cdc534d9845e14160b8484c63ec4e59cef41bce20d9dbb",
    # a coef of -1e308 or +1e308 gives nan and inf log ratios: the first-maximum, nan and
    # min(x, 700) rules of every grid criterion (recorded before the grid became columns).
    # Both are time-invariant; from t0 >= 2 a tail of -1e308 meets inf - inf, so the tail
    # shared from t0 = 0 turned its datko criteria from overflow-limited into pass.  Re-recorded
    # when one decay fit came to serve both settings: an s-bin whose constant is nan admits no
    # rate, so fit-exp-nu went from pass (nu = 8, N(s) = 1 in 13 bins, 9 of them nan) to
    # inconclusive; no other byte moved, and the label stays UES
    ("classify", "--config", "tests/data/custom_coef_neg1e308.json"):
        "35760a65899f87d0b3889ca0d2b5069e9d69b5d82f51a1997fe7a6408c8dd72a",
    ("classify", "--config", "tests/data/custom_coef_pos1e308.json"):
        "126f0abbc55ca433fffc9c1722cd8c1614d9f296808fcef68b07f8a2bf5a133e",
    # the saturating and power gauges inside every integral
    ("classify", "--system", "scalar_decay", "--gauge", "sat:1"):
        "8085b91fb634ecf0020b8b7fe535852ab83ec5c0b7af87c50aa0a98d1b75d053",
    ("classify", "--system", "diag3", "--gauge", "pow:2"):
        "ba915c2e97f49a2df1f31b04567497d96fed0c3d9bc299d46e0e6f3bfa7e6273",
    # the budget trips in the middle of a tail and the horizon is halved: the tail left
    # unsettled at the shortened horizon is a budget-limited probe, which ends its scan
    ("classify", "--system", "spike", "--eval-cap", "500"):
        "3fabe8efdd4561a5301da58a3475abf0d6e36bf3d6da1a36f08f60dc7e430cf9",
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
