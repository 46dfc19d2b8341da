"""The ratio grid as columns: one evaluation per ratio, covered grids selected bit for bit, Python's max."""

import io
import json
import math
import random
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from skewflow import gallery, probes
from skewflow.cli import main
from skewflow.probes import Groups, first_max, lag_grid, ratio_data, s_grid

DATA = Path(__file__).resolve().parent / "data"


def _system(name):
    if name.endswith(".json"):
        return gallery.build_custom(json.loads((DATA / name).read_text())["custom_system"])
    return gallery.build(name)


@pytest.fixture
def evaluations(monkeypatch):
    """The number of log norms the probes module evaluates, counted from here on."""
    count = [0]
    log_norms = probes.log_norms

    def counting(system, t, *args, **kwargs):
        count[0] += np.size(t)
        return log_norms(system, t, *args, **kwargs)

    monkeypatch.setattr(probes, "log_norms", counting)
    return count


def _same(a, b):
    columns = ("t", "s", "t0", "lag", "log_ratio", "xi", "vi", "skipped_rows")
    return all(getattr(a, c).dtype == getattr(b, c).dtype and getattr(a, c).tobytes() == getattr(b, c).tobytes()
               for c in columns) and a.extra == b.extra and a.grid == b.grid


# the ±1e308 systems have skipped rows and nan and inf log ratios
@pytest.mark.parametrize("name", gallery.GALLERY_NAMES + ("custom_coef_neg1e308.json", "custom_coef_pos1e308.json"))
def test_covered_grids_are_selected_bit_for_bit(name, evaluations):
    s = _system(name)
    panel = ratio_data(s)
    for kwargs in ({"integer_only": True}, {"lag_max": 10.0}, {"lag_max": 5.0}):
        before = evaluations[0]
        chosen = ratio_data(s, within=panel, **kwargs)
        assert evaluations[0] == before, kwargs  # selected, not evaluated
        assert _same(chosen, ratio_data(s, **kwargs)), kwargs


@pytest.mark.parametrize("kwargs", [{"lag_max": 7.3}, {"lag_max": 10.0, "s_step": 0.05}])
def test_grids_the_panel_does_not_cover_are_evaluated(kwargs, evaluations):
    s = gallery.build("spike")
    panel = ratio_data(s)
    before = evaluations[0]
    chosen = ratio_data(s, within=panel, **kwargs)
    assert evaluations[0] > before
    assert _same(chosen, ratio_data(s, **kwargs))


def test_one_classify_evaluates_each_ratio_of_the_panel_grid_once(evaluations):
    with redirect_stdout(io.StringIO()):
        main(["classify", "--system", "spike"])
    s = gallery.build("spike")
    h = s.horizons
    samples = len(s.state_samples) * len(s.vector_samples)
    rows = {(x, max(0.0, x - off)) for x in s_grid(h.s_max) for off in (0.0, 1.5, 3.0)}
    # each row at t = s and at every lag, then each extra pair once
    assert evaluations[0] == len(rows) * samples * (1 + len(lag_grid(h.lag_max))) + len(h.extra_pairs) * samples


def test_a_log_ratio_beyond_float_range_is_inf_without_a_warning():
    # sin terms of coef -1e308: log norms of about +-1e308, whose difference overflows as Python's floats do
    s = gallery.build_custom({"entries": [[{"kind": "sin", "coef": -1e308}]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = ratio_data(s)
    assert np.isinf(data.log_ratio).any()


def test_maxima_are_the_ones_pythons_max_takes():
    values = (0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan)
    rng = random.Random(8)
    for _ in range(2000):
        n = rng.randint(1, 12)
        a = [rng.choice(values) for _ in range(n)]
        g = [float(rng.randint(0, 3)) for _ in range(n)]
        assert first_max(np.array(a)) == max(range(n), key=lambda i: a[i])
        groups = Groups(np.array(g))
        for key, i in zip(groups.keys[0].tolist(), groups.argmax(np.array(a)).tolist()):
            assert i == max((j for j in range(n) if g[j] == key), key=lambda j: a[j])
