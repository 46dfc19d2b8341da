"""The gauge class used inside every integral and series criterion.

A gauge is a nondecreasing function R on [0, inf) with R(0) = 0 and
R(t) > 0 for t > 0.  Gauges are user-supplied data, so membership is
validated on a grid rather than proved.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGauge

VALIDATION_GRID = np.linspace(0.0, 1000.0, 1000)


@dataclass(frozen=True)
class Gauge:
    kind: str
    p: float | None = None
    c: float | None = None
    nodes: tuple | None = None

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise InvalidGauge(f"gauge argument must be >= 0, got {t}")
        if self.kind == "identity":
            return t
        if self.kind == "power":
            return t ** self.p
        if self.kind == "saturating":
            return t / (self.c + t)
        # table: linear interpolation, held constant past the last node
        xs, ys = self.nodes
        return float(np.interp(t, xs, ys))

    def array(self, t: np.ndarray) -> np.ndarray:
        """The gauge on every element of a float array, bit-identical to the scalar call.

        The power gauge raises with Python's ``**`` element by element
        (``np.power`` rounds differently), so a power beyond float range
        raises ``OverflowError`` as the scalar call does.
        """
        if (t < 0.0).any():
            raise InvalidGauge(f"gauge argument must be >= 0, got {t[np.argmax(t < 0.0)]}")
        if self.kind == "identity":
            return t
        if self.kind == "power":
            return np.fromiter(map(pow, t.tolist(), [self.p] * t.size), float, t.size)
        if self.kind == "saturating":
            with np.errstate(invalid="ignore"):  # inf / inf is nan, as with Python floats, and no warning
                return t / (self.c + t)
        xs, ys = self.nodes
        return np.interp(t, xs, ys)

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "power":
            return f"pow:{self.p:g}"
        if self.kind == "saturating":
            return f"sat:{self.c:g}"
        return f"table[{len(self.nodes[0])}]"


@dataclass(frozen=True)
class GaugeViolation:
    clause: str        # zero-at-zero | positivity | monotonicity
    t: float
    value: float
    t_prev: float | None = None
    value_prev: float | None = None


def validate_gauge(g: Gauge, grid) -> GaugeViolation | None:
    """The first gauge-class violation on a sorted grid starting at 0, in grid order; positivity before monotonicity at one t."""
    t = np.asarray(grid, dtype=float)
    try:
        v = g.array(t)
    except OverflowError:  # a power beyond float range is still a gauge value: inf, as g gives on numpy floats
        with np.errstate(over="ignore"):
            v = np.array([g(x) for x in t])
    if t[0] == 0.0 and v[0] != 0.0:
        return GaugeViolation("zero-at-zero", 0.0, float(v[0]))
    positivity = (t[1:] > 0.0) & ~(v[1:] > 0.0)
    bad = np.flatnonzero(positivity | (v[1:] < v[:-1]))
    if not bad.size:
        return None
    i = int(bad[0])  # the first t[i + 1] that breaks a clause, against t[i] for monotonicity
    if positivity[i]:
        return GaugeViolation("positivity", float(t[i + 1]), float(v[i + 1]))
    return GaugeViolation("monotonicity", float(t[i + 1]), float(v[i + 1]), float(t[i]), float(v[i]))


def _load_table(path: str) -> tuple:
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise InvalidGauge(f"cannot read gauge table {path!r}: {exc}")
    pts = []
    for row in rows:
        try:
            pts.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError):
            if pts:
                raise InvalidGauge(f"bad gauge table row {row!r}")
            # allow a header row
    if not pts:
        raise InvalidGauge(f"gauge table {path!r} is empty")
    pts.sort()
    xs = tuple(p[0] for p in pts)
    ys = tuple(p[1] for p in pts)
    return xs, ys


def make_gauge(descriptor) -> Gauge:
    """Build and validate a gauge from a descriptor.

    Descriptors: ``identity``, ``pow:<p>``, ``sat:<c>``, ``table:@file.csv``
    (CSV columns t, R), or an already-built Gauge.
    """
    if isinstance(descriptor, Gauge):
        g = descriptor
    elif isinstance(descriptor, str):
        d = descriptor.strip()
        if d == "identity":
            g = Gauge("identity")
        elif d.startswith("pow:"):
            try:
                p = float(d[4:])
            except ValueError:
                raise InvalidGauge(f"bad power gauge {d!r}")
            if not p > 0.0:
                raise InvalidGauge("power gauge needs p > 0")
            g = Gauge("power", p=p)
        elif d.startswith("sat:"):
            try:
                c = float(d[4:])
            except ValueError:
                raise InvalidGauge(f"bad saturating gauge {d!r}")
            if not c > 0.0:
                raise InvalidGauge("saturating gauge needs c > 0")
            g = Gauge("saturating", c=c)
        elif d.startswith("table:@"):
            nodes = _load_table(d[7:])
            if nodes[0][0] != 0.0 or nodes[1][0] != 0.0:
                raise InvalidGauge("gauge table must start at (0, 0)")
            g = Gauge("table", nodes=nodes)
        else:
            raise InvalidGauge(f"unknown gauge descriptor {d!r}")
    else:
        raise InvalidGauge(f"unknown gauge descriptor {descriptor!r}")

    bad = validate_gauge(g, VALIDATION_GRID)
    if bad is not None:
        raise InvalidGauge(f"{bad.clause} violated at t={bad.t} (value {bad.value})")
    if g.kind == "table":
        # the validation grid may step over narrow table features
        bad = validate_gauge(g, g.nodes[0])
        if bad is not None:
            raise InvalidGauge(f"{bad.clause} violated at t={bad.t} (value {bad.value})")
    return g
