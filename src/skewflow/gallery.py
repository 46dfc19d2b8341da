"""Built-in example systems with known classifications: the six of the README's gallery table.

Base-function choices are overridable defaults satisfying each family's
shape constraints.  Each cocycle's ``log_diag_array`` serves every batch
(``core.log_diags``) and ``log_diag`` one point, bit-identical on every
element: transcendental functions run on ``math``, element by element.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import (
    ABSTRACT_REAL,
    SHIFT_PARAMETER,
    Horizons,
    StatePoint,
    System,
    apply,
)
from .errors import InvalidParams

# default parameters of each system, merged under any overrides by ``build``
DEFAULTS = {
    "shift-metric-demo": {"l": 2.0, "rate": 1.0},
    "diag3": {"alpha1": -1.0, "alpha2": 1.0, "alpha3": -3.0, "l": 2.0},
    "scalar_decay": {"mu": 2.0},
    "bounded_ratio": {"c": 2.0},
    "tsint": {},
    "spike": {"nodes": 6},
}

GALLERY_NAMES = tuple(DEFAULTS)


# ---------------------------------------------------------------------------
# semiflow

class TranslationSemiflow:
    """phi(t, s, x) = x + (t - s), for either state kind.

    On shift-parameter states this moves f_theta to f_{theta + (t-s)}; on
    abstract-real states it translates along the nonnegative half-line.
    """

    def __call__(self, t, s, x):
        if t == s:
            return x
        return StatePoint(x.kind, x.value + (t - s))

    def move(self, t, s, value, real):
        """The array form: state values moved from s to t; abstract-real ones (``real``) must stay >= 0."""
        out = np.where(t == s, value, value + (t - s))
        if not (out[real] >= 0.0).all():
            raise InvalidParams("abstract-real states must be >= 0")
        return out


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

    def log_diag_array(self, t, s, theta):
        h = t - s
        i = np.where(np.isinf(theta), self.l * h,
                     self.l * h + apply(math.atan, theta + h) - apply(math.atan, theta))
        return np.multiply.outer(self.coeffs, i)


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

    def log_diag_array(self, t, s, theta):
        h = t - s
        inf = np.isinf(theta)
        theta = np.where(inf, 0.0, theta)
        return np.where(inf, -self.mu * h,
                        -self.mu * h + apply(math.log1p, theta + h) - apply(math.log1p, theta))[None]


class BoundedRatioCocycle:
    """Scalar f(x) / f(t-s+x) with f(u) = c - (c-1) e^{-u} (values in [1, c))."""

    def __init__(self, c):
        self.c = float(c)

    def _log_f(self, u, on=lambda f, u: f(u)):
        return on(math.log, self.c - (self.c - 1.0) * on(math.exp, -u))

    def log_diag(self, t, s, x):
        u = x.value
        return [self._log_f(u) - self._log_f(u + (t - s))]

    def log_diag_array(self, t, s, theta):
        return (self._log_f(theta, apply) - self._log_f(theta + (t - s), apply))[None]


class OscillatingDecayCocycle:
    """Scalar exp(t sin t - s sin s - 2 (t-s)); state-independent."""

    def log_diag(self, t, s, x):
        return [t * math.sin(t) - s * math.sin(s) - 2.0 * (t - s)]

    def log_diag_array(self, t, s, theta):
        return (t * apply(math.sin, t) - s * apply(math.sin, s) - 2.0 * (t - s))[None]


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
        # window widths by node, as _log_f computes them; 0.0 off the nodes
        self._widths = np.array([(n + math.exp(-float(n) ** 2)) - n if 1 <= n <= self.nodes else 0.0
                                 for n in range(self.nodes + 1)])

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

    def _log_f_array(self, s):
        n = np.floor(s)
        out = 2.0 * s
        i = np.flatnonzero((n >= 1) & (n <= self.nodes))
        if i.size:
            n, d = n[i], s[i] - n[i]
            w = self._widths[n.astype(int)]
            win = w > 0.0
            safe = np.where(win, w, 0.5)  # the values at w = 0 are discarded
            out[i] = np.where(d <= 0.0, 2.0 * n, np.where(
                win, np.where(d <= w, 2.0 * n * (1.0 - d / safe), 2.0 * (n + 1) * (d - w) / (1.0 - w)),
                2.0 * (n + 1) * d))
        return out

    def log_diag_array(self, t, s, theta):
        f_s, f_t = self._log_f_array(np.concatenate([s, t])).reshape(2, -1)
        return (f_s - f_t - (t - s))[None]


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
    def _term(kind, coef, t, on=lambda f, t: f(t)):
        """One term at t; ``on`` applies a math function (``core.apply`` for arrays)."""
        if kind == "linear":
            return coef * t
        if kind == "tsin":
            return coef * t * on(math.sin, t)
        if kind == "log1p":
            return coef * on(math.log1p, t)
        if kind == "sin":
            return coef * on(math.sin, t)
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

    def log_diag_array(self, t, s, theta):
        out = []
        for terms, scale in zip(self.entries, self.scales):
            g = np.full(t.shape, math.log(scale))
            for term in terms:
                g = g + self._term(term["kind"], float(term["coef"]), t, apply)
                g = g - self._term(term["kind"], float(term["coef"]), s, apply)
            out.append(g)
        return np.array(out).reshape(len(out), t.size)


# ---------------------------------------------------------------------------
# sample sets

_SCALAR_VECTORS = ((1.0,), (-1.0,))
_DIAG3_VECTORS = ((1.0, 0.0, 0.0), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), (0.2, -0.3, 0.5))
_DIAG3_DUALS = ((1.0, 1.0, 1.0), (1.0, -1.0, 0.5), (0.0, 1.0, 0.0))


def _shift_states(values):
    return tuple(StatePoint(SHIFT_PARAMETER, v) for v in values)


def _real_states(values):
    return tuple(StatePoint(ABSTRACT_REAL, v) for v in values)


def _probe_vectors(dimension, norm):
    """Unit vector samples and unit dual samples for a diagonal cocycle."""
    if dimension == 1:
        return _SCALAR_VECTORS, _SCALAR_VECTORS
    if norm == "L1" and dimension == 3:
        return _DIAG3_VECTORS, _DIAG3_DUALS
    basis = tuple(tuple(float(i == j) for j in range(dimension)) for i in range(dimension))
    return basis, basis


def _as_float(params, key):
    v = params[key]
    try:
        return float(v)
    except (TypeError, ValueError):
        raise InvalidParams(f"parameter {key} must be a number, got {v!r}")


def _system(name, cocycle, states, ground_truth, horizons=Horizons(), dimension=1, norm="L1", **declared):
    """A system moved by the translation semiflow, probed with the standard vectors; ``declared`` as on System."""
    vectors, duals = _probe_vectors(dimension, norm)
    return System(
        name=name,
        semiflow=TranslationSemiflow(),
        cocycle=cocycle,
        dimension=dimension,
        norm_choice=norm,
        state_samples=states,
        vector_samples=vectors,
        dual_samples=duals,
        ground_truth=ground_truth,
        horizons=horizons,
        **declared,
    )


# ---------------------------------------------------------------------------
# builders; each reads its parameters merged over DEFAULTS

def _build_hump(name, coeffs, l):
    """shift-metric-demo (one coefficient) and diag3 (three)."""
    if not l > 0.0:
        raise InvalidParams("l must be positive")
    if all(c < 0.0 for c in coeffs):
        tag = "UES"
    elif any(c > 0.0 for c in coeffs):
        tag = "unstable"
    else:
        tag = "US-not-UES"
    return _system(
        name,
        HumpIntegralCocycle(coeffs, l),
        _shift_states((-2.0, 0.0, 1.5, math.inf)),
        tag,
        dimension=len(coeffs),
        time_invariant=True,
    )


def _build_scalar_decay(params):
    mu = params["mu"]
    # the base translate at shift theta starts at f(theta) = 1/(1+theta), largest at theta = 0
    if not mu > 1.0:
        raise InvalidParams(f"mu={mu} must exceed the state's initial value 1.0")
    return _system(
        "scalar_decay",
        DecayingShiftCocycle(mu),
        _shift_states((0.0, 1.0, 2.5)),
        "UES",
        time_invariant=True,
    )


def _build_bounded_ratio(params):
    if not params["c"] > 1.0:
        raise InvalidParams("c must exceed 1")
    return _system(
        "bounded_ratio",
        BoundedRatioCocycle(params["c"]),
        _real_states((0.0, 1.0, 3.0)),
        "US-not-UES",
        time_invariant=True,
    )


def _build_tsint(params):
    return _system(
        "tsint",
        OscillatingDecayCocycle(),
        _real_states((0.0, 1.0, 2.5)),
        "ES",
        # starting times stay below the first big oscillation transient so
        # that per-bin constants remain under the nonuniform cap
        Horizons(s_max=4.0, lag_max=12.0),
        state_independent=True,
    )


def _build_spike(params):
    nodes = int(params["nodes"])
    if not 1 <= nodes <= 8:
        raise InvalidParams("nodes must be between 1 and 8")
    pairs = []
    for n in range(1, nodes + 1):
        t = n + math.exp(-float(n) ** 2)
        if t > n and t <= 6.0 + 12.0:
            pairs.append((t, float(n)))
    return _system(
        "spike",
        SpikeCocycle(nodes),
        _real_states((0.0, 1.0, 2.5)),
        "ES-not-UES",
        Horizons(lag_max=12.0, extra_pairs=tuple(pairs)),
        state_independent=True,
    )


_BUILDERS = {
    "shift-metric-demo": lambda p: _build_hump("shift-metric-demo", (-p["rate"],), p["l"]),
    "diag3": lambda p: _build_hump("diag3", (p["alpha1"], -p["alpha2"], p["alpha3"]), p["l"]),
    "scalar_decay": _build_scalar_decay,
    "bounded_ratio": _build_bounded_ratio,
    "tsint": _build_tsint,
    "spike": _build_spike,
}


def build(name: str, params: dict | None = None) -> System:
    """Build a gallery system by name with optional overrides of its own parameters (``DEFAULTS``)."""
    if name not in _BUILDERS:
        raise InvalidParams(f"unknown gallery system {name!r}; choose from {GALLERY_NAMES}")
    unknown = sorted(set(params or {}) - set(DEFAULTS[name]))
    if unknown:
        raise InvalidParams(f"{name} has no parameter {', '.join(unknown)}; it takes "
                            f"{', '.join(DEFAULTS[name]) or 'none'}")
    merged = {**DEFAULTS[name], **(params or {})}
    for key in DEFAULTS[name]:
        merged[key] = _as_float(merged, key)
    return _BUILDERS[name](merged)


def gallery_entries() -> list:
    """Name, default parameters, and tag for every built-in system."""
    return [
        {"name": name, "params": dict(params), "ground_truth": build(name).ground_truth}
        for name, params in DEFAULTS.items()
    ]


def build_custom(spec: dict) -> System:
    """Build a system from the declarative scalar/diagonal family.

    Spec keys: ``entries`` (list of term lists; see DeclarativeCocycle),
    optional ``scales`` (finite and positive), ``norm``, ``name``, ``s_max``,
    ``lag_max``, ``tail_cap``, ``ground_truth``.
    """
    entries = spec.get("entries")
    if not (entries and isinstance(entries, list) and all(isinstance(terms, list) for terms in entries)):
        raise InvalidParams("custom system needs a nonempty 'entries' list of term lists")
    for terms in entries:
        for term in terms:
            if not isinstance(term, dict):
                raise InvalidParams(f"each term must be an object, got {term!r}")
            if term.get("kind") not in DeclarativeCocycle.KINDS:
                raise InvalidParams(f"unknown term kind {term.get('kind')!r}")
            if "coef" not in term:
                raise InvalidParams("each term needs a 'coef'")
            c = term["coef"]  # a JSON integer may lie beyond the float range
            if isinstance(c, bool) or not (isinstance(c, (int, float)) and abs(c) <= sys.float_info.max):
                raise InvalidParams(f"'coef' must be a finite number, got {c!r}")
    scales = spec.get("scales")
    if scales is not None:
        if not isinstance(scales, (list, tuple)) or len(scales) != len(entries):
            raise InvalidParams("'scales' must be a list matching the number of entries")
        if not all(isinstance(c, (int, float)) and 0.0 < c < math.inf for c in scales):
            raise InvalidParams(f"'scales' must be finite and positive, got {scales!r}")
    return _system(
        spec.get("name", "custom"),
        DeclarativeCocycle(entries, scales),
        _real_states((0.0, 1.0, 2.5)),
        spec.get("ground_truth"),
        Horizons(**{k: _as_float(spec, k) for k in ("s_max", "lag_max", "tail_cap") if k in spec}),
        dimension=len(entries),
        norm=spec.get("norm", "L1"),
        time_invariant=all(term["kind"] == "linear" for terms in entries for term in terms),
        state_independent=True,
    )
