"""Shared fixtures, and the systems and maps that only the tests build."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from skewflow import RunConfig, gallery
from skewflow.core import _LOG_MAX, StatePoint, System, combine_logs, log_abs, log_norms
from skewflow.errors import InvalidParams, NonFinite, TimeOrderViolation
from skewflow.nonuniform import run_nonuniform_panel
from skewflow.probes import ratio_data
from skewflow.quadrature import EVAL_CAP, IntegralResult, series, simpson, tails
from skewflow.uniform import fit_decay


# under CI the examples are derived from each test alone, so a failure there reproduces
# anywhere with CI=1; elsewhere they are random, as hypothesis draws them by default
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def log_norm_path(system: System, w=None, dual: bool = False):
    """(t, s, x) -> log ||Phi(t, s, x) w|| on arrays (see ``core.log_norms``), built once per probe vector w."""
    lw = None if w is None else log_abs(w)[:, None]
    return lambda t, s, x: log_norms(system, t, s, x, lw, dual)


def log_vector_norm(system: System, t: float, s: float, x, v) -> float:
    """log ||Phi(t, s, x) v||."""
    return float(log_norm_path(system, v)(t, s, x)[0])


def log_operator_norm(system: System, t: float, s: float, x) -> float:
    """log of the induced norm of Phi(t, s, x)."""
    return float(log_norm_path(system)(t, s, x)[0])


def log_adjoint_dual_norm(system: System, t: float, s: float, x, vstar) -> float:
    """log of the dual norm of Phi(t, s, x)^T applied to a functional."""
    return float(log_norm_path(system, vstar, dual=True)(t, s, x)[0])


def _one(kernel, f, *args, convert=float) -> IntegralResult:
    """A batch of one of a quadrature kernel over the scalar f, called point by point: its result, or its error raised."""
    (r,) = kernel(lambda x, k: np.array([float(f(v)) for v in map(convert, x.tolist())]), *args)
    if isinstance(r, Exception):
        raise r
    return r


def integrate_finite(f, a: float, b: float, tol: float, eval_cap: int = EVAL_CAP,
                     rel_tol: float = 1e-9) -> IntegralResult:
    """Adaptive Simpson estimate of the integral of a scalar f over [a, b] (see ``quadrature.simpson``)."""
    return _one(simpson, f, [a], [b], [tol], [eval_cap], rel_tol)


def integrate_tail(f, a: float, tol: float, horizon_cap: float, eval_cap: int = EVAL_CAP,
                   block: float = 1.0) -> IntegralResult:
    """Integral of a scalar f over [a, inf), truncated adaptively (see ``quadrature.tails``)."""
    return _one(tails, f, [a], [horizon_cap], tol, eval_cap, block)


def sum_tail(f, n0: int, tol: float, cap: int, eval_cap: int = EVAL_CAP) -> IntegralResult:
    """Partial sum of f(n0) + f(n0+1) + ... for a scalar f (see ``quadrature.series``)."""
    return _one(series, f, [n0], tol, [cap], eval_cap, convert=int)


def uniform_fit(data, n_cap: float = 1e3):
    """The decay fit of the uniform setting: one bin holds every probe."""
    return fit_decay(data, np.zeros_like(data.lag), n_cap)


def nonuniform_fit(data, n_cap: float = 1e6):
    """The decay fit of the nonuniform setting: one bin per s."""
    return fit_decay(data, data.s, n_cap)


def exponential_system(rate: float = -1.0, lag_max: float = 1024.0) -> System:
    """Pure scalar exponential Phi(t, s) = e^{rate (t-s)}."""
    return gallery.build_custom({
        "name": f"exp({rate:+g})",
        "entries": [[{"kind": "linear", "coef": float(rate)}]],
        "lag_max": lag_max,
    })


def translate(t: float, s: float, x: StatePoint) -> StatePoint:
    """The translation semiflow of every gallery and custom system on one point: x + (t - s), and x where t == s."""
    return x if t == s else StatePoint(x.kind, x.value + (t - s))


def cocycle_matrix(system: System, t: float, s: float, x: StatePoint) -> np.ndarray:
    """Dense matrix value of the cocycle at (t, s, x), from its scalar log_diag: math.exp per entry, inf beyond float range."""
    if not (t >= s >= 0.0):
        raise TimeOrderViolation(f"need t >= s >= 0, got t={t}, s={s}")
    g = np.asarray(system.cocycle.log_diag(t, s, x), dtype=float).tolist()
    return np.diag([math.inf if v > _LOG_MAX else math.exp(v) for v in g])


def apply_cocycle(system: System, t: float, s: float, x: StatePoint, v) -> np.ndarray:
    """Apply Phi(t, s, x) to a vector by its dense matrix; NonFinite when the value overflows."""
    v = np.asarray(v, dtype=float)
    if v.shape != (system.dimension,):
        raise InvalidParams(f"vector has shape {v.shape}, expected ({system.dimension},)")
    out = cocycle_matrix(system, t, s, x) @ v
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"cocycle value overflowed at (t={t}, s={s})")
    return out


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
def classifications(systems, config):
    return {name: run_nonuniform_panel(s, config) for name, s in systems.items()}
