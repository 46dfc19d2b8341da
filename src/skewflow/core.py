"""Two-parameter flow primitives on finite-dimensional normed spaces.

A ``System`` bundles a state-space semiflow ``phi(t, s, x)`` with an
operator-valued cocycle ``Phi(t, s, x)`` acting on R^d.  Both are
two-time-parameter families defined for ``t >= s >= 0`` and satisfy

    phi(t, t, x) = x                    Phi(t, t, x) = I
    phi(t, s, phi(s, t0, x)) = phi(t, t0, x)
    Phi(t, s, phi(s, t0, x)) Phi(s, t0, x) = Phi(t, t0, x)

A cocycle is diagonal and provides ``log_diag(t, s, x)``, the logs of its
entry magnitudes, as closed-form scalars.  Trajectory norms are computed
from those logs, so ratios survive horizons where ``exp()`` would over- or
underflow; that is the only evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import add
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParams, NonFinite, TimeOrderViolation

SHIFT_PARAMETER = "shift-parameter"
ABSTRACT_REAL = "abstract-real"

NORMS = ("L1", "L2", "Linf")
_DUAL = {"L1": "Linf", "L2": "L2", "Linf": "L1"}

_NEG_INF = float("-inf")


def check_time_pair(t: float, s: float) -> None:
    """Validate membership of (t, s) in the ordered time domain."""
    if not (t >= s >= 0.0):
        raise TimeOrderViolation(f"need t >= s >= 0, got t={t}, s={s}")


@dataclass(frozen=True)
class StatePoint:
    """A point of the state space.

    ``shift-parameter`` states identify a translate of a base function
    (the parameter may be any real, including +inf for the constant-limit
    closure point).  ``abstract-real`` states are nonnegative reals moved
    by the translation semiflow.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in (SHIFT_PARAMETER, ABSTRACT_REAL):
            raise InvalidParams(f"unknown state kind {self.kind!r}")
        if self.kind == ABSTRACT_REAL and not self.value >= 0.0:
            raise InvalidParams("abstract-real states must be >= 0")


def state_distance(a: StatePoint, b: StatePoint) -> float:
    """Parameter distance between two states of the same kind."""
    if a.kind != b.kind:
        raise InvalidParams("cannot compare states of different kinds")
    if math.isinf(a.value) and math.isinf(b.value):
        return 0.0
    return abs(a.value - b.value)


def vec_norm(v: Sequence[float], norm: str) -> float:
    if norm == "L1":
        return float(sum(abs(c) for c in v))
    if norm == "L2":
        # hypot rescales internally, so subnormal components do not underflow
        return math.hypot(*v)
    if norm == "Linf":
        return float(max(abs(c) for c in v))
    raise InvalidParams(f"unknown norm {norm!r}")


def dual_norm(v: Sequence[float], norm: str) -> float:
    """Norm of a functional, dual to the system's vector norm."""
    return vec_norm(v, _DUAL[norm])


@dataclass(frozen=True)
class Horizons:
    """Per-system probe limits.

    Systems with super-exponential transients declare tighter lag caps so
    detectors never leave the range where their formulas are meaningful.
    ``extra_pairs`` are (t, s) time pairs probed in addition to the regular
    grids (used to pin down features that uniform grids would miss).
    """

    s_max: float = 6.0
    lag_max: float = 1024.0
    tail_cap: float = 100.0
    extra_pairs: tuple = ()


@dataclass(frozen=True)
class System:
    """A semiflow/cocycle pair with its probe sets.

    The "for all x, v" quantifiers of the flow laws are discharged over
    ``state_samples`` and ``vector_samples``; these finite sets are part of
    the system's contract.  ``vector_samples`` must be unit vectors in
    ``norm_choice``; ``dual_samples`` unit in the dual norm.  The cocycle
    is any object with a ``log_diag(t, s, x)`` method returning the logs of
    its diagonal entries' magnitudes.  ``memo`` holds the integral results
    computed for this system; a copy made with ``dataclasses.replace``
    starts with an empty one.
    """

    name: str
    semiflow: Callable[[float, float, StatePoint], StatePoint]
    cocycle: object
    dimension: int
    norm_choice: str
    state_samples: tuple
    vector_samples: tuple
    dual_samples: tuple
    ground_truth: str | None = None
    horizons: Horizons = Horizons()
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.dimension <= 8:
            raise InvalidParams("dimension must be between 1 and 8")
        if self.norm_choice not in NORMS:
            raise InvalidParams(f"norm must be one of {NORMS}")
        if not self.state_samples or not self.vector_samples:
            raise InvalidParams("state_samples and vector_samples must be nonempty")
        for v in self.vector_samples:
            if len(v) != self.dimension:
                raise InvalidParams("vector sample has wrong dimension")
            if abs(vec_norm(v, self.norm_choice) - 1.0) > 1e-12:
                raise InvalidParams(f"vector sample {v} is not unit in {self.norm_choice}")
        for v in self.dual_samples:
            if abs(dual_norm(v, self.norm_choice) - 1.0) > 1e-12:
                raise InvalidParams(f"dual sample {v} is not unit in the dual norm")


def evolve(system: System, t: float, s: float, x: StatePoint) -> StatePoint:
    check_time_pair(t, s)
    return system.semiflow(t, s, x)


def cocycle_matrix(system: System, t: float, s: float, x: StatePoint) -> np.ndarray:
    """Dense matrix value of the cocycle at (t, s, x)."""
    check_time_pair(t, s)
    g = np.asarray(system.cocycle.log_diag(t, s, x), dtype=float)
    with np.errstate(over="ignore"):
        return np.diag(np.exp(g))


def apply_cocycle(system: System, t: float, s: float, x: StatePoint, v) -> np.ndarray:
    """Apply Phi(t, s, x) to a vector.

    Raises NonFinite when the value overflows; that signals the caller to
    shrink the horizon, not an instability verdict.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (system.dimension,):
        raise InvalidParams(f"vector has shape {v.shape}, expected ({system.dimension},)")
    m = cocycle_matrix(system, t, s, x)
    out = m @ v
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"cocycle value overflowed at (t={t}, s={s})")
    return out


def apply_adjoint(system: System, t: float, s: float, x: StatePoint, vstar) -> np.ndarray:
    """Apply the transpose of Phi(t, s, x) to a dual vector."""
    vstar = np.asarray(vstar, dtype=float)
    m = cocycle_matrix(system, t, s, x)
    out = m.T @ vstar
    if not np.all(np.isfinite(out)):
        raise NonFinite(f"adjoint value overflowed at (t={t}, s={s})")
    return out


# ---------------------------------------------------------------------------
# log-space trajectory norms (the workhorse of every ratio-based criterion)

def _log_abs(c: float) -> float:
    return math.log(abs(c)) if c != 0.0 else _NEG_INF


def log_combiner(norm: str, w=None):
    """g -> log ||diag(e^g) w||, for logs g of the entry magnitudes of a diagonal operator.

    The probe-constant work, log|w_i| and the dispatch on the norm, is done
    here once; the returned function combines the log terms g_i + log|w_i|
    with a max-shifted log-sum-exp, so huge or tiny norms stay finite.
    Terms equal to -inf (zero components) are dropped.  With w None it is
    the induced norm, which for a diagonal operator is the largest entry
    magnitude under all three norms.
    """
    if w is None:
        return max
    logs = [_log_abs(c) for c in w]
    # one term (scalar systems, most of the gallery): the same operations without the lists
    if norm == "Linf":
        if len(logs) == 1:
            (lw,) = logs
            return lambda g: g[0] + lw
        return lambda g: max([t for t in map(add, g, logs) if t != _NEG_INF], default=_NEG_INF)
    scale = 1.0 if norm == "L1" else 2.0
    if len(logs) == 1:
        (lw,) = logs

        def combine(g):
            m = g[0] + lw
            return m if m == _NEG_INF else m + math.log(math.exp(scale * (m - m))) / scale
        return combine

    def combine(g):
        finite = [t for t in map(add, g, logs) if t != _NEG_INF]
        if not finite:
            return _NEG_INF
        m = max(finite)
        return m + math.log(sum([math.exp(scale * (t - m)) for t in finite])) / scale
    return combine


def log_norm_path(system: System, w=None, dual: bool = False):
    """(t, s, x) -> log ||Phi(t, s, x) w||, built once per probe vector w.

    With w None it is the induced norm of Phi(t, s, x); with dual set, w is
    a functional and the value is the dual norm of Phi(t, s, x)^T w.  Every
    call checks the time order before it evaluates the cocycle.
    """
    combine = log_combiner(_DUAL[system.norm_choice] if dual else system.norm_choice, w)
    log_diag = system.cocycle.log_diag

    def log_norm(t, s, x):
        check_time_pair(t, s)
        return combine(log_diag(t, s, x))
    return log_norm


def log_vector_norm(system: System, t: float, s: float, x: StatePoint, v) -> float:
    """log ||Phi(t, s, x) v||, computed without forming huge or tiny exponentials."""
    return log_norm_path(system, v)(t, s, x)


def log_operator_norm(system: System, t: float, s: float, x: StatePoint) -> float:
    """log of the induced norm of Phi(t, s, x)."""
    return log_norm_path(system)(t, s, x)


def operator_norm(system: System, t: float, s: float, x: StatePoint) -> float:
    """Induced norm of Phi(t, s, x)."""
    try:
        return math.exp(log_operator_norm(system, t, s, x))
    except OverflowError:
        raise NonFinite(f"operator norm overflowed at (t={t}, s={s})")


def log_adjoint_dual_norm(system: System, t: float, s: float, x: StatePoint, vstar) -> float:
    """log of the dual norm of Phi(t, s, x)^T applied to a functional."""
    return log_norm_path(system, vstar, dual=True)(t, s, x)


# ---------------------------------------------------------------------------
# flow-law checks

@dataclass(frozen=True)
class LawReport:
    """Maximum deviations observed over a probe set (caller applies tolerance)."""

    max_composition_dev: float
    max_identity_dev: float
    probes: int

    def as_dict(self) -> dict:
        return {
            "max_composition_dev": self.max_composition_dev,
            "max_identity_dev": self.max_identity_dev,
            "probes": self.probes,
        }


def check_semiflow_law(system: System, probes) -> LawReport:
    """Deviations of the semiflow identity and composition laws.

    Probes are (t, s, t0, x[, ...]) tuples with t >= s >= t0 >= 0.
    """
    comp = 0.0
    ident = 0.0
    count = 0
    for probe in probes:
        t, s, t0, x = probe[0], probe[1], probe[2], probe[3]
        check_time_pair(t, s)
        check_time_pair(s, t0)
        mid = system.semiflow(s, t0, x)
        lhs = system.semiflow(t, s, mid)
        rhs = system.semiflow(t, t0, x)
        comp = max(comp, state_distance(lhs, rhs))
        ident = max(ident, state_distance(system.semiflow(t, t, x), x))
        count += 1
    return LawReport(comp, ident, count)


def check_cocycle_law(system: System, probes) -> LawReport:
    """Relative deviations of the cocycle identity and composition laws.

    Probes are (t, s, t0, x, v) tuples.  The composition deviation is
    ||Phi(t,s,phi(s,t0,x)) Phi(s,t0,x) v - Phi(t,t0,x) v|| / max(1, ||Phi(t,t0,x) v||).
    """
    comp = 0.0
    ident = 0.0
    count = 0
    for t, s, t0, x, v in probes:
        check_time_pair(t, s)
        check_time_pair(s, t0)
        mid_state = system.semiflow(s, t0, x)
        step = apply_cocycle(system, s, t0, x, v)
        lhs = apply_cocycle(system, t, s, mid_state, step)
        rhs = apply_cocycle(system, t, t0, x, v)
        denom = max(1.0, vec_norm(rhs, system.norm_choice))
        comp = max(comp, vec_norm(lhs - rhs, system.norm_choice) / denom)
        same = apply_cocycle(system, t, t, x, v)
        ident = max(ident, vec_norm(same - np.asarray(v, dtype=float), system.norm_choice))
        count += 1
    return LawReport(comp, ident, count)


# ---------------------------------------------------------------------------
# spectral shift

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
