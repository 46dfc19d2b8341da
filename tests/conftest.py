"""Shared fixtures, and the systems and maps that only the tests build."""

import math
from dataclasses import replace

import numpy as np
import pytest

from skewflow import RunConfig, gallery
from skewflow.core import System, cocycle_matrix, combine_logs, log_abs, log_operator_norm
from skewflow.errors import NonFinite
from skewflow.nonuniform import run_nonuniform_panel
from skewflow.probes import ratio_data
from skewflow.uniform import run_uniform_panel


def exponential_system(rate: float = -1.0, lag_max: float = 1024.0) -> System:
    """Pure scalar exponential Phi(t, s) = e^{rate (t-s)}."""
    return gallery.build_custom({
        "name": f"exp({rate:+g})",
        "entries": [[{"kind": "linear", "coef": float(rate)}]],
        "lag_max": lag_max,
    })


def apply_adjoint(system: System, t: float, s: float, x, vstar) -> np.ndarray:
    """Apply the transpose of Phi(t, s, x) to a dual vector."""
    vstar = np.asarray(vstar, dtype=float)
    m = cocycle_matrix(system, t, s, x)
    out = m.T @ vstar
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"adjoint value overflowed at (t={t}, s={s})")
    return out


def log_combiner(norm: str, w=None):
    """g -> log ||diag(e^g) w|| for logs g of a diagonal operator's entries (along the first axis)."""
    lw = None if w is None else log_abs(w)

    @np.errstate(all="ignore")
    def combine(g):
        g = np.asarray(g, dtype=float)
        return combine_logs(None if lw is None else norm, g if lw is None else (g.T + lw).T)
    return combine


def operator_norm(system: System, t: float, s: float, x) -> float:
    """Induced norm of Phi(t, s, x)."""
    try:
        return math.exp(log_operator_norm(system, t, s, x))
    except OverflowError:
        raise NonFinite(f"operator norm overflowed at (t={t}, s={s})")


class _ShiftedDiagonalCocycle:
    def __init__(self, base, alpha: float):
        self.base = base
        self.alpha = alpha

    def log_diag(self, t, s, x):
        off = -self.alpha * (t - s)
        return [g + off for g in self.base.log_diag(t, s, x)]


def shift_cocycle(system: System, alpha: float) -> System:
    """Exponentially reweighted system: Phi_alpha(t, s, x) = e^{-alpha (t-s)} Phi(t, s, x).

    Preserves both flow laws; the classification tag is cleared because the
    reweighting changes it.
    """
    return replace(
        system,
        name=f"{system.name}#shift{alpha:+g}",
        cocycle=_ShiftedDiagonalCocycle(system.cocycle, alpha),
        ground_truth=None,
    )


@pytest.fixture(scope="session")
def config():
    return RunConfig()


@pytest.fixture(scope="session")
def systems():
    return {name: gallery.build(name) for name in gallery.GALLERY_NAMES}


@pytest.fixture(scope="session")
def ratio_cache(systems):
    return {name: ratio_data(s) for name, s in systems.items()}


@pytest.fixture(scope="session")
def uniform_panels(systems, ratio_cache, config):
    return {
        name: run_uniform_panel(s, config, data=ratio_cache[name])
        for name, s in systems.items()
    }


@pytest.fixture(scope="session")
def classifications(systems, uniform_panels, config):
    return {
        name: run_nonuniform_panel(s, config, uniform=uniform_panels[name])
        for name, s in systems.items()
    }
