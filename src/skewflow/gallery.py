"""Built-in example systems with known classifications.

Six systems, each a semiflow/cocycle pair whose cocycle values are
exponentials of closed-form scalars:

  shift-metric-demo  shift flow on a two-sided function space, scalar
                     contraction driven by the integral of the state
  diag3              the same function space driving a 3x3 diagonal
                     cocycle with per-entry exponent multipliers
  scalar_decay       shift flow on decreasing translates, exponent
                     -mu (t-s) + integral of the state (UES)
  bounded_ratio      translation flow with bounded nondecreasing f,
                     Phi = f(x) / f(t-s+x)   (uniformly stable, not UES)
  tsint              Phi = exp(t sin t - s sin s - 2 (t-s))  (nonuniform)
  spike              Phi = f(s)/f(t) e^{-(t-s)} where log f dips to 0 in
                     geometrically narrowing windows after each integer
                     (nonuniformly stable, dramatic transients at nodes)

Base-function choices are overridable defaults satisfying each family's
shape constraints.
"""

from __future__ import annotations

import math

from .core import (
    ABSTRACT_REAL,
    SHIFT_PARAMETER,
    Horizons,
    StatePoint,
    System,
)
from .errors import InvalidParams

GALLERY_NAMES = (
    "shift-metric-demo",
    "diag3",
    "scalar_decay",
    "bounded_ratio",
    "tsint",
    "spike",
)


# ---------------------------------------------------------------------------
# semiflows

class ShiftSemiflow:
    """phi(t, s, f_theta) = f_{theta + (t-s)} on a space of translates."""

    def __call__(self, t, s, x):
        if t == s:
            return x
        return StatePoint(SHIFT_PARAMETER, x.value + (t - s))


class TranslationSemiflow:
    """phi(t, s, x) = t - s + x on the nonnegative half-line."""

    def __call__(self, t, s, x):
        if t == s:
            return x
        return StatePoint(ABSTRACT_REAL, x.value + (t - s))


# ---------------------------------------------------------------------------
# cocycles (all diagonal; log_diag returns per-entry log magnitudes)

class HumpIntegralCocycle:
    """Diagonal entries exp(c_i * I) with I = integral over [0, t-s] of the
    shifted hump base l + 1/(1 + u^2).

    The base is nondecreasing left of 0, decreasing right of 0, with limit
    l at both infinities, so I lies between l*(t-s) and (l+1)*(t-s).  The
    +inf shift parameter denotes the constant-l closure point.
    """

    def __init__(self, coeffs, l):
        self.coeffs = tuple(float(c) for c in coeffs)
        self.l = float(l)

    def base_integral(self, theta, h):
        if math.isinf(theta):
            return self.l * h
        return self.l * h + math.atan(theta + h) - math.atan(theta)

    def log_diag(self, t, s, x):
        i = self.base_integral(x.value, t - s)
        return [c * i for c in self.coeffs]


class DecayingShiftCocycle:
    """Scalar exp(-mu (t-s) + integral of the translate of 1/(1+u)).

    The base integral over [0, h] starting at shift theta is
    log((1 + theta + h) / (1 + theta)).
    """

    def __init__(self, mu):
        self.mu = float(mu)

    def log_diag(self, t, s, x):
        h = t - s
        theta = x.value
        if math.isinf(theta):
            return [-self.mu * h]
        return [-self.mu * h + math.log1p(theta + h) - math.log1p(theta)]


class BoundedRatioCocycle:
    """Scalar f(x) / f(t-s+x) with f(u) = c - (c-1) e^{-u} (values in [1, c))."""

    def __init__(self, c):
        self.c = float(c)

    def _log_f(self, u):
        return math.log(self.c - (self.c - 1.0) * math.exp(-u))

    def log_diag(self, t, s, x):
        u = x.value
        return [self._log_f(u) - self._log_f(u + (t - s))]


class OscillatingDecayCocycle:
    """Scalar exp(t sin t - s sin s - 2 (t-s)); state-independent."""

    def log_diag(self, t, s, x):
        return [t * math.sin(t) - s * math.sin(s) - 2.0 * (t - s)]


class SpikeCocycle:
    """Scalar f(s)/f(t) e^{-(t-s)} with log f piecewise linear.

    log f climbs to 2n at each integer n <= node count, drops to 0 across a
    window of width e^{-n^2} just after n, then climbs to 2(n+1).  Window
    widths are recovered through float addition so that the nominal node
    times evaluate exactly; windows narrower than float resolution keep
    their climb but have an unreachable bottom.  Beyond the node count
    log f continues as 2 s.
    """

    def __init__(self, nodes):
        self.nodes = int(nodes)

    def _log_f(self, s):
        n = math.floor(s)
        if n < 1 or n > self.nodes:
            return 2.0 * s
        d = s - n
        if d <= 0.0:
            return 2.0 * n
        w = (n + math.exp(-float(n) ** 2)) - n
        if w > 0.0 and d <= w:
            return 2.0 * n * (1.0 - d / w)
        if w > 0.0:
            return 2.0 * (n + 1) * (d - w) / (1.0 - w)
        return 2.0 * (n + 1) * d

    def log_diag(self, t, s, x):
        return [self._log_f(s) - self._log_f(t) - (t - s)]


class DeclarativeCocycle:
    """Scalar or diagonal cocycle from a declarative entry list.

    Each entry is a list of terms; entry exponent = log(scale) + sum of
    a_k(t) - a_k(s) over its terms, with term kinds:

      linear: coef * t        tsin: coef * t * sin(t)
      log1p:  coef * ln(1+t)  sin:  coef * sin(t)

    A scale other than 1 deliberately breaks the equal-time identity, which
    the axiom checker must catch.
    """

    KINDS = ("linear", "tsin", "log1p", "sin")

    def __init__(self, entries, scales=None):
        self.entries = entries
        self.scales = scales or [1.0] * len(entries)

    @staticmethod
    def _term(kind, coef, t):
        if kind == "linear":
            return coef * t
        if kind == "tsin":
            return coef * t * math.sin(t)
        if kind == "log1p":
            return coef * math.log1p(t)
        if kind == "sin":
            return coef * math.sin(t)
        raise InvalidParams(f"unknown term kind {kind!r}")

    def log_diag(self, t, s, x):
        out = []
        for terms, scale in zip(self.entries, self.scales):
            g = math.log(scale)
            for term in terms:
                g += self._term(term["kind"], term["coef"], t)
                g -= self._term(term["kind"], term["coef"], s)
            out.append(g)
        return out


# ---------------------------------------------------------------------------
# sample sets

_SCALAR_VECTORS = ((1.0,), (-1.0,))
_DIAG3_VECTORS = ((1.0, 0.0, 0.0), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), (0.2, -0.3, 0.5))
_DIAG3_DUALS = ((1.0, 1.0, 1.0), (1.0, -1.0, 0.5), (0.0, 1.0, 0.0))


def _shift_states(values):
    return tuple(StatePoint(SHIFT_PARAMETER, v) for v in values)


def _real_states(values):
    return tuple(StatePoint(ABSTRACT_REAL, v) for v in values)


def _as_float(params, key, default):
    v = params.get(key, default)
    try:
        return float(v)
    except (TypeError, ValueError):
        raise InvalidParams(f"parameter {key} must be a number, got {v!r}")


# ---------------------------------------------------------------------------
# builders

def _build_shift_metric_demo(params):
    l = _as_float(params, "l", 2.0)
    rate = _as_float(params, "rate", 1.0)
    if not l > 0.0:
        raise InvalidParams("l must be positive")
    coeff = -rate
    if coeff < 0.0:
        tag = "UES"
    elif coeff == 0.0:
        tag = "US-not-UES"
    else:
        tag = "unstable"
    return System(
        name="shift-metric-demo",
        semiflow=ShiftSemiflow(),
        cocycle=HumpIntegralCocycle((coeff,), l),
        dimension=1,
        norm_choice="L1",
        state_samples=_shift_states((-2.0, 0.0, 1.5, math.inf)),
        vector_samples=_SCALAR_VECTORS,
        dual_samples=_SCALAR_VECTORS,
        ground_truth=tag,
        horizons=Horizons(s_max=6.0, lag_max=1024.0, tail_cap=100.0),
    )


def _build_diag3(params):
    a1 = _as_float(params, "alpha1", -1.0)
    a2 = _as_float(params, "alpha2", 1.0)
    a3 = _as_float(params, "alpha3", -3.0)
    l = _as_float(params, "l", 2.0)
    if not l > 0.0:
        raise InvalidParams("l must be positive")
    coeffs = (a1, -a2, a3)
    if all(c < 0.0 for c in coeffs):
        tag = "UES"
    elif any(c > 0.0 for c in coeffs):
        tag = "unstable"
    else:
        tag = "US-not-UES"
    return System(
        name="diag3",
        semiflow=ShiftSemiflow(),
        cocycle=HumpIntegralCocycle(coeffs, l),
        dimension=3,
        norm_choice="L1",
        state_samples=_shift_states((-2.0, 0.0, 1.5, math.inf)),
        vector_samples=_DIAG3_VECTORS,
        dual_samples=_DIAG3_DUALS,
        ground_truth=tag,
        horizons=Horizons(s_max=6.0, lag_max=1024.0, tail_cap=100.0),
    )


def _build_scalar_decay(params):
    mu = _as_float(params, "mu", 2.0)
    thetas = params.get("thetas", (0.0, 1.0, 2.5))
    # the base translate at shift theta starts at f(theta) = 1/(1+theta)
    for theta in thetas:
        if not mu > 1.0 / (1.0 + theta):
            raise InvalidParams(
                f"mu={mu} must exceed the state's initial value {1.0 / (1.0 + theta)}"
            )
    return System(
        name="scalar_decay",
        semiflow=ShiftSemiflow(),
        cocycle=DecayingShiftCocycle(mu),
        dimension=1,
        norm_choice="L1",
        state_samples=_shift_states(tuple(float(t) for t in thetas)),
        vector_samples=_SCALAR_VECTORS,
        dual_samples=_SCALAR_VECTORS,
        ground_truth="UES",
        horizons=Horizons(s_max=6.0, lag_max=1024.0, tail_cap=100.0),
    )


def _build_bounded_ratio(params):
    c = _as_float(params, "c", 2.0)
    if not c > 1.0:
        raise InvalidParams("c must exceed 1")
    return System(
        name="bounded_ratio",
        semiflow=TranslationSemiflow(),
        cocycle=BoundedRatioCocycle(c),
        dimension=1,
        norm_choice="L1",
        state_samples=_real_states((0.0, 1.0, 3.0)),
        vector_samples=_SCALAR_VECTORS,
        dual_samples=_SCALAR_VECTORS,
        ground_truth="US-not-UES",
        horizons=Horizons(s_max=6.0, lag_max=1024.0, tail_cap=100.0),
    )


def _build_tsint(params):
    return System(
        name="tsint",
        semiflow=TranslationSemiflow(),
        cocycle=OscillatingDecayCocycle(),
        dimension=1,
        norm_choice="L1",
        state_samples=_real_states((0.0, 1.0, 2.5)),
        vector_samples=_SCALAR_VECTORS,
        dual_samples=_SCALAR_VECTORS,
        ground_truth="ES",
        # starting times stay below the first big oscillation transient so
        # that per-bin constants remain under the nonuniform cap
        horizons=Horizons(s_max=4.0, lag_max=12.0, tail_cap=100.0),
    )


def _build_spike(params):
    nodes = int(_as_float(params, "nodes", 6.0))
    if not 1 <= nodes <= 8:
        raise InvalidParams("nodes must be between 1 and 8")
    pairs = []
    for n in range(1, nodes + 1):
        t = n + math.exp(-float(n) ** 2)
        if t > n and t <= 6.0 + 12.0:
            pairs.append((t, float(n)))
    return System(
        name="spike",
        semiflow=TranslationSemiflow(),
        cocycle=SpikeCocycle(nodes),
        dimension=1,
        norm_choice="L1",
        state_samples=_real_states((0.0, 1.0, 2.5)),
        vector_samples=_SCALAR_VECTORS,
        dual_samples=_SCALAR_VECTORS,
        ground_truth="ES-not-UES",
        horizons=Horizons(s_max=6.0, lag_max=12.0, tail_cap=100.0, extra_pairs=tuple(pairs)),
    )


_BUILDERS = {
    "shift-metric-demo": _build_shift_metric_demo,
    "diag3": _build_diag3,
    "scalar_decay": _build_scalar_decay,
    "bounded_ratio": _build_bounded_ratio,
    "tsint": _build_tsint,
    "spike": _build_spike,
}


def build(name: str, params: dict | None = None) -> System:
    """Build a gallery system by name with optional parameter overrides."""
    if name not in _BUILDERS:
        raise InvalidParams(f"unknown gallery system {name!r}; choose from {GALLERY_NAMES}")
    return _BUILDERS[name](params or {})


def gallery_entries() -> list:
    """Name, default parameters, and tag for every built-in system."""
    out = []
    defaults = {
        "shift-metric-demo": {"l": 2.0, "rate": 1.0},
        "diag3": {"alpha1": -1.0, "alpha2": 1.0, "alpha3": -3.0, "l": 2.0},
        "scalar_decay": {"mu": 2.0},
        "bounded_ratio": {"c": 2.0},
        "tsint": {},
        "spike": {"nodes": 6},
    }
    for name in GALLERY_NAMES:
        out.append({
            "name": name,
            "params": defaults[name],
            "ground_truth": build(name).ground_truth,
        })
    return out


def build_custom(spec: dict) -> System:
    """Build a system from the declarative scalar/diagonal family.

    Spec keys: ``entries`` (list of term lists; see DeclarativeCocycle),
    optional ``scales``, ``norm``, ``name``, ``s_max``, ``lag_max``,
    ``tail_cap``, ``ground_truth``.
    """
    entries = spec.get("entries")
    if not entries:
        raise InvalidParams("custom system needs a nonempty 'entries' list")
    dim = len(entries)
    for terms in entries:
        for term in terms:
            if term.get("kind") not in DeclarativeCocycle.KINDS:
                raise InvalidParams(f"unknown term kind {term.get('kind')!r}")
            if "coef" not in term:
                raise InvalidParams("each term needs a 'coef'")
    scales = spec.get("scales")
    if scales is not None and len(scales) != dim:
        raise InvalidParams("'scales' must match the number of entries")
    norm = spec.get("norm", "L1")
    if dim == 1:
        vectors = _SCALAR_VECTORS
        duals = _SCALAR_VECTORS
    elif norm == "L1" and dim == 3:
        vectors = _DIAG3_VECTORS
        duals = _DIAG3_DUALS
    else:
        basis = []
        for i in range(dim):
            e = [0.0] * dim
            e[i] = 1.0
            basis.append(tuple(e))
        vectors = tuple(basis)
        duals = tuple(basis)
    return System(
        name=spec.get("name", "custom"),
        semiflow=TranslationSemiflow(),
        cocycle=DeclarativeCocycle(entries, scales),
        dimension=dim,
        norm_choice=norm,
        state_samples=_real_states((0.0, 1.0, 2.5)),
        vector_samples=vectors,
        dual_samples=duals,
        ground_truth=spec.get("ground_truth"),
        horizons=Horizons(
            s_max=float(spec.get("s_max", 6.0)),
            lag_max=float(spec.get("lag_max", 1024.0)),
            tail_cap=float(spec.get("tail_cap", 100.0)),
        ),
    )


def exponential_system(rate: float = -1.0, lag_max: float = 1024.0) -> System:
    """Pure scalar exponential Phi(t, s) = e^{rate (t-s)}."""
    return build_custom({
        "name": f"exp({rate:+g})",
        "entries": [[{"kind": "linear", "coef": float(rate)}]],
        "lag_max": lag_max,
    })
