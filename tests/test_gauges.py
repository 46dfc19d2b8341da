"""Gauge-class construction and validation."""

import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewflow.errors import InvalidGauge
from skewflow.gauges import VALIDATION_GRID, Gauge, GaugeViolation, make_gauge, validate_gauge

BUILTINS = ["identity", "pow:2", "pow:0.5", "sat:1", "sat:3"]
# built once: construction re-validates on a 1000-point grid every time
_GAUGES = {d: make_gauge(d) for d in BUILTINS}


def test_identity_values():
    g = make_gauge("identity")
    assert g(0.0) == 0.0
    assert g(2.0) == 2.0


def test_power_values():
    g = make_gauge("pow:2")
    assert g(3.0) == 9.0
    assert g(0.0) == 0.0


def test_saturating_values():
    g = make_gauge("sat:1")
    assert g(1.0) == 0.5
    assert g(0.0) == 0.0
    assert g(9.0) == 0.9


def test_saturating_array_at_infinity_is_the_scalar_nan_without_a_warning():
    g = make_gauge("sat:1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = g.array(np.array([0.0, 1.0, math.inf]))
    assert got[:2].tolist() == [0.0, 0.5] and math.isnan(got[2]) and math.isnan(g(math.inf))


def test_power_one_matches_identity():
    p1 = make_gauge("pow:1")
    ident = make_gauge("identity")
    for t in [0.0, 0.25, 1.0, 17.5, 999.0]:
        assert p1(t) == ident(t)


def test_all_builtins_vanish_exactly_at_zero():
    for g in _GAUGES.values():
        assert g(0.0) == 0.0


@pytest.mark.parametrize("desc", BUILTINS)
def test_builtins_pass_grid_validation(desc):
    g = make_gauge(desc)
    assert validate_gauge(g, [0.0, 0.5, 1.0, 10.0, 1000.0]) is None


@pytest.mark.parametrize("desc", BUILTINS)
@given(a=st.floats(min_value=0.0, max_value=1000.0), b=st.floats(min_value=0.0, max_value=1000.0))
@settings(max_examples=100, deadline=None)
def test_builtin_monotone(desc, a, b):
    g = _GAUGES[desc]
    lo, hi = min(a, b), max(a, b)
    assert g(lo) <= g(hi)


def test_table_gauge(tmp_path):
    path = tmp_path / "gauge.csv"
    path.write_text("0,0\n1,2\n2,3\n")
    g = make_gauge(f"table:@{path}")
    assert g(0.0) == 0.0
    assert g(1.0) == 2.0
    assert g(1.5) == 2.5
    assert g(99.0) == 3.0  # held past the last node


def test_table_decrease_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n1,2\n2,1\n")
    with pytest.raises(InvalidGauge, match="monotonicity"):
        make_gauge(f"table:@{path}")


def test_table_zero_plateau_rejected(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("0,0\n1,0\n2,5\n")
    with pytest.raises(InvalidGauge, match="positivity"):
        make_gauge(f"table:@{path}")


def test_table_must_start_at_origin(tmp_path):
    path = tmp_path / "off.csv"
    path.write_text("0,1\n1,2\n")
    with pytest.raises(InvalidGauge):
        make_gauge(f"table:@{path}")


def test_validate_reports_first_violation():
    g = Gauge("table", nodes=((0.0, 1.0, 2.0), (0.0, 2.0, 1.0)))
    bad = validate_gauge(g, [0.0, 1.0, 2.0])
    assert bad is not None
    assert bad.clause == "monotonicity"
    assert bad.t == 2.0


def test_bad_descriptors():
    for desc in ["pow:0", "pow:-1", "sat:0", "nope", "pow:x", 42]:
        with pytest.raises(InvalidGauge):
            make_gauge(desc)


def test_negative_argument_rejected():
    g = make_gauge("identity")
    with pytest.raises(InvalidGauge):
        g(-1.0)


def _validate_point_by_point(g, grid):
    """validate_gauge as a loop over the grid, one scalar call per point: the reference for the array scan."""
    grid = list(grid)
    v0 = g(grid[0])
    if grid[0] == 0.0 and v0 != 0.0:
        return GaugeViolation("zero-at-zero", 0.0, v0)
    prev_t, prev_v = grid[0], v0
    for t in grid[1:]:
        v = g(t)
        if t > 0.0 and not v > 0.0:
            return GaugeViolation("positivity", t, v)
        if v < prev_v:
            return GaugeViolation("monotonicity", t, v, prev_t, prev_v)
        prev_t, prev_v = t, v
    return None


def _fields(bad):
    """A violation as plain floats, so numpy floats and nan compare by value."""
    return bad and (bad.clause, *(None if f is None else repr(float(f)) for f in astuple(bad)[1:]))


_TABLES = {
    "valid": ((0.0, 0.5, 2.0, 7.0), (0.0, 1.0, 1.0, 4.0)),
    "decrease": ((0.0, 1.0, 2.0), (0.0, 2.0, 1.0)),
    "zero plateau": ((0.0, 1.0, 2.0), (0.0, 0.0, 5.0)),
    "off the origin": ((0.0, 1.0), (1.0, 2.0)),
    "nan": ((0.0, 1.0, 2.0), (0.0, math.nan, 3.0)),
    "negative": ((0.0, 500.0, 600.0), (0.0, -1.0, 2.0)),
    "late decrease": ((0.0, 999.0, 1000.0), (0.0, 5.0, 4.0)),
}


@pytest.mark.parametrize("gauge", [_GAUGES[d] for d in BUILTINS] + [Gauge("power", p=1e6), Gauge("power", p=1e-300)]
                         + [Gauge("table", nodes=n) for n in _TABLES.values()],
                         ids=BUILTINS + ["pow:1e6", "pow:1e-300"] + list(_TABLES))
def test_the_array_scan_finds_what_the_loop_finds(gauge):
    # numpy grids, as make_gauge's: a power past float range is inf there, where a Python float raises
    grids = [VALIDATION_GRID, np.array([0.0, 1.0, 2.0]), np.array([0.0])] + (
        [gauge.nodes[0]] if gauge.kind == "table" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # pow:1e6 overflows to inf on numpy floats
        for grid in grids:
            assert _fields(validate_gauge(gauge, grid)) == _fields(_validate_point_by_point(gauge, grid))


@given(st.lists(st.floats(min_value=-2.0, max_value=5.0, allow_nan=False), min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_the_array_scan_finds_what_the_loop_finds_on_random_tables(ys, data):
    xs = sorted(data.draw(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=len(ys),
                                   max_size=len(ys), unique=True)))
    gauge = Gauge("table", nodes=(tuple(xs), tuple(ys)))
    for grid in (VALIDATION_GRID, xs, [0.0] + xs):
        assert _fields(validate_gauge(gauge, grid)) == _fields(_validate_point_by_point(gauge, grid))
