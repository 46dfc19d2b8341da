"""Two-parameter flow primitives on finite-dimensional normed spaces.

A ``System`` bundles a state-space semiflow ``phi(t, s, x)`` with an
operator-valued cocycle ``Phi(t, s, x)`` acting on R^d.  Both are
two-time-parameter families defined for ``t >= s >= 0`` and satisfy

    phi(t, t, x) = x                    Phi(t, t, x) = I
    phi(t, s, phi(s, t0, x)) = phi(t, t0, x)
    Phi(t, s, phi(s, t0, x)) Phi(s, t0, x) = Phi(t, t0, x)

A cocycle is diagonal: ``log_diag(t, s, x)`` gives the logs of its entry
magnitudes, and one rule serves a batch (``log_diags``): ``log_diag_array``
when the cocycle has it, else ``log_diag`` mapped over the elements.  The
README ("Numerical conventions") gives the rest of the log-space rules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParams, NonFinite, TimeOrderViolation

SHIFT_PARAMETER = "shift-parameter"
ABSTRACT_REAL = "abstract-real"

NORMS = ("L1", "L2", "Linf")
_DUAL = {"L1": "Linf", "L2": "L2", "Linf": "L1"}

_NEG_INF = float("-inf")
_LOG_MAX = 709.782712893384  # the largest float whose exp is finite


def check_time_pair(t: float, s: float) -> None:
    """Validate membership of (t, s) in the ordered time domain."""
    if not (t >= s >= 0.0):
        raise TimeOrderViolation(f"need t >= s >= 0, got t={t}, s={s}")


def check_time_pairs(t: np.ndarray, s: np.ndarray) -> None:
    """check_time_pair on every element of two arrays of times."""
    ok = (t >= s) & (s >= 0.0)
    if not ok.all():
        check_time_pair(*(v[np.argmin(ok)] for v in (t, s)))


def apply(f, a: np.ndarray) -> np.ndarray:
    """The scalar function f (from ``math``) on every element of a float array."""
    flat = a.ravel()
    # converted to Python floats 1024 at a time, so no long list of them is ever held
    values = itertools.chain.from_iterable(flat[i:i + 1024].tolist() for i in range(0, flat.size, 1024))
    return np.fromiter(map(f, values), float, flat.size).reshape(a.shape)


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


class States(NamedTuple):
    """The states of a batch, one per element: their values and which are abstract-real."""

    value: np.ndarray
    real: np.ndarray

    @classmethod
    def of(cls, points) -> States:
        return cls(np.array([x.value for x in points], dtype=float), np.array([x.kind == ABSTRACT_REAL for x in points]))

    def points(self) -> list:
        return [StatePoint((SHIFT_PARAMETER, ABSTRACT_REAL)[r], v) for v, r in zip(self.value.tolist(), self.real.tolist())]


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
    ``norm_choice``; ``dual_samples`` unit in the dual norm.  The semiflow
    also moves arrays (``move``); the cocycle has ``log_diag(t, s, x)``, the
    logs of its diagonal entries' magnitudes, and may add ``log_diag_array``
    for batches (``log_diags``).  ``time_invariant`` (t and s read only
    through t - s) and ``state_independent`` (x not read) let the integral
    criteria share integrals (README); ``axioms`` checks both.  ``memo``
    holds the integral results computed for this system; a copy made with
    ``dataclasses.replace`` starts with an empty one.
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
    time_invariant: bool = False
    state_independent: bool = False
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


def evolve(system: System, t: np.ndarray, s: np.ndarray, x: States) -> States:
    """phi(t_i, s_i, x_i) for every element, by the semiflow's array form ``move``."""
    check_time_pairs(t, s)
    return States(system.semiflow.move(t, s, x.value, x.real), x.real)


def log_diags(system: System, t: np.ndarray, s: np.ndarray, x: States) -> np.ndarray:
    """The (d, n) array of log_diag(t_i, s_i, x_i).

    A cocycle with ``log_diag_array(t, s, values)`` is served by it; any
    other has its ``log_diag`` mapped over the elements.
    """
    if hasattr(system.cocycle, "log_diag_array"):
        return system.cocycle.log_diag_array(t, s, x.value)
    rows = list(map(system.cocycle.log_diag, t.tolist(), s.tolist(), x.points()))
    return np.array(rows, dtype=float).reshape(len(rows), system.dimension).T


def cocycle_matrix(system: System, t: float, s: float, x: StatePoint) -> np.ndarray:
    """Dense matrix value of the cocycle at (t, s, x)."""
    check_time_pair(t, s)
    # math.exp per entry, so the matrix does not depend on the CPU; beyond float range, inf as numpy's exp gives
    g = np.asarray(system.cocycle.log_diag(t, s, x), dtype=float).tolist()
    return np.diag([math.inf if v > _LOG_MAX else math.exp(v) for v in g])


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


# ---------------------------------------------------------------------------
# log-space trajectory norms (the workhorse of every ratio-based criterion)

def log_abs(w) -> np.ndarray:
    """log|w_i| per component, -inf for a zero component."""
    return np.array([math.log(abs(c)) if c != 0.0 else _NEG_INF for c in w], dtype=float)


def combine_logs(norm: str | None, terms: np.ndarray) -> np.ndarray:
    """log of a vector norm from the rows g_i + log|w_i| of ``terms``, element by element.

    A max-shifted log-sum-exp keeps huge or tiny norms finite.  Terms equal
    to -inf (zero components) are dropped, and the terms are taken in row
    order, as Python's ``max`` and ``sum`` take a list.  With norm None it is
    the induced norm, which for a diagonal operator is the largest entry
    magnitude under all three norms.
    """
    shape = terms.shape[1:]
    terms = terms.reshape(len(terms), -1)
    rows = list(terms)
    if norm is None:
        m = rows[0]
        for r in rows[1:]:
            m = np.where(r > m, r, m)
        return m.reshape(shape)
    if len(rows) == 1 and (rows[0] < np.inf).all():  # m + log(1) / scale: -0.0 becomes +0.0, -inf stays
        return (rows[0].copy() if norm == "Linf" else rows[0] + 0.0).reshape(shape)
    keep = [r != _NEG_INF for r in rows]
    m = np.where(keep[0], rows[0], 0.0)
    have = keep[0]
    for r, k in zip(rows[1:], keep[1:]):
        m = np.where(k & (~have | (r > m)), r, m)
        have = have | k
    if norm == "Linf":
        return np.where(have, m, _NEG_INF).reshape(shape)
    scale = 1.0 if norm == "L1" else 2.0
    # exp(0) = 1 and log(1) = 0 exactly, so math runs only where the argument differs
    acc = 0.0
    for r, k in zip(rows, keep):
        z = scale * (r - m)
        e = k.astype(float)
        at = k & (z != 0.0)
        if at.any():
            e[at] = apply(math.exp, z[at])
        acc = acc + e
    acc = np.where(have, acc, 1.0)
    lg = np.zeros(acc.shape)
    at = acc != 1.0
    if at.any():
        lg[at] = apply(math.log, acc[at])
    out = np.where(have, m + lg / scale, _NEG_INF)
    # which nan an operation on two nans returns is up to the loop that runs it, so
    # a nan is recomputed in Python's own order to keep even its sign bit-identical
    for i in np.flatnonzero(np.isnan(out)).tolist():
        finite = [t for t in terms[:, i].tolist() if t != _NEG_INF]
        mx = max(finite)
        out[i] = mx + math.log(sum([math.exp(scale * (t - mx)) for t in finite])) / scale
    return out.reshape(shape)


@np.errstate(all="ignore")
def log_norms(system: System, t, s, x, lw=None, dual: bool = False) -> np.ndarray:
    """log ||Phi(t_i, s_i, x_i) w_i|| for every element: the one trajectory log-norm path.

    ``t`` and ``s`` are arrays of times, or scalars; ``x`` a States batch, or
    one StatePoint for all.  ``lw`` holds log|w| of the probe vector, (d, 1)
    or per element (d, n); None is the induced norm.  With ``dual`` each w
    is a functional, normed by the dual norm.  The time order is checked on
    every element before the cocycle is evaluated.
    """
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if t.shape != s.shape or t.ndim != 1:
        t, s = (np.atleast_1d(v) for v in np.broadcast_arrays(t, s))
    if isinstance(x, StatePoint):
        x = States.of([x] * t.size)
    check_time_pairs(t, s)
    g = log_diags(system, t, s, x)
    if lw is None:
        return combine_logs(None, g)
    return combine_logs(_DUAL[system.norm_choice] if dual else system.norm_choice, g + lw)


# ---------------------------------------------------------------------------
# flow-law checks

@dataclass(frozen=True)
class LawReport:
    """Maximum deviations observed over a probe set (caller applies tolerance)."""

    max_composition_dev: float
    max_identity_dev: float
    probes: int

    def as_dict(self) -> dict:
        return asdict(self)


def check_semiflow_law(system: System, probes) -> LawReport:
    """Deviations of the semiflow identity and composition laws.

    Probes are (t, s, t0, x[, ...]) tuples with t >= s >= t0 >= 0.
    """
    comp = 0.0
    ident = 0.0
    for probe in probes:
        t, s, t0, x = probe[0], probe[1], probe[2], probe[3]
        check_time_pair(t, s)
        check_time_pair(s, t0)
        mid = system.semiflow(s, t0, x)
        lhs = system.semiflow(t, s, mid)
        rhs = system.semiflow(t, t0, x)
        comp = max(comp, state_distance(lhs, rhs))
        ident = max(ident, state_distance(system.semiflow(t, t, x), x))
    return LawReport(comp, ident, len(probes))


def check_cocycle_law(system: System, probes) -> LawReport:
    """Relative deviations of the cocycle identity and composition laws.

    Probes are (t, s, t0, x, v) tuples.  The composition deviation is
    ||Phi(t,s,phi(s,t0,x)) Phi(s,t0,x) v - Phi(t,t0,x) v|| / max(1, ||Phi(t,t0,x) v||).
    """
    comp = 0.0
    ident = 0.0
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
    return LawReport(comp, ident, len(probes))


def check_declarations(system: System, probes) -> tuple:
    """The largest deviations from the system's declarations over the probes: (time invariance, state independence).

    Probes are (t, s, t0, x, v) tuples.  Time invariance compares log_diag and
    the semiflow at (t + t0, s + t0, x) with their values at (t, s, x); state
    independence compares log_diag at (t, s, x) with its value at the first
    state sample.  log_diag deviates by the largest difference of its logs, a
    nan by inf.  A true declaration deviates by rounding; an undeclared one is None.
    """
    def gap(p, q):  # between log_diag at the points p and q; a nan matches nothing
        a, b = (np.asarray(system.cocycle.log_diag(*r), dtype=float) for r in (p, q))
        return float(np.nan_to_num(np.where(a == b, 0.0, np.abs(a - b)), nan=np.inf, posinf=np.inf).max())

    shift = max((max(gap((t + t0, s + t0, x), (t, s, x)),
                     state_distance(system.semiflow(t + t0, s + t0, x), system.semiflow(t, s, x)))
                 for t, s, t0, x, _ in probes), default=0.0) if system.time_invariant else None
    state = max((gap((t, s, x), (t, s, system.state_samples[0])) for t, s, _, x, _ in probes),
                default=0.0) if system.state_independent else None
    return shift, state
