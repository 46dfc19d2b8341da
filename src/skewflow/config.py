"""Run configuration shared by the CLI and the panel."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError
from .reports import NONUNIFORM_CRITERIA, UNIFORM_CRITERIA


@dataclass
class RunConfig:
    system: str | None = None
    params: dict = field(default_factory=dict)
    criteria: str = "all"
    gauge: str = "identity"
    grid_h: float = 10.0
    grid_step: float = 0.5
    tmax: float = 100.0
    delta_max: float = 6.0
    tol: float = 1e-6
    ncap: float = 1e3
    ncap_nonuniform: float = 1e6
    eval_cap: int = 1_000_000
    seed: int = 1
    out: str | None = None
    format: str = "json"
    omega_const: bool = False
    custom_system: dict | None = None
    probes: list | None = None

    def selected_criteria(self):
        if self.criteria in (None, "all", ""):
            return None
        return {c.strip() for c in self.criteria.split(",") if c.strip()}

    def echo(self) -> dict:
        d = asdict(self)
        d.pop("out", None)
        return d


_FLOAT_FIELDS = {f.name for f in fields(RunConfig) if f.type == "float"}
_INT_FIELDS = {f.name for f in fields(RunConfig) if f.type == "int"}


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def merge_config(file_doc: dict | None, flag_values: dict) -> RunConfig:
    """File values first, then CLI flags override."""
    cfg = RunConfig()
    for source in (file_doc or {}), flag_values:
        for key, value in source.items():
            if value is None:
                continue
            try:
                if key in _FLOAT_FIELDS:
                    value = float(value)
                elif key in _INT_FIELDS:
                    value = int(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            setattr(cfg, key, value)
    for key in sorted(_FLOAT_FIELDS):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key} must be finite")
    for key in ("tol", "grid_h", "grid_step", "tmax"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg.ncap <= 0 or cfg.ncap_nonuniform <= 0:
        raise ConfigError("caps must be positive")
    if cfg.delta_max < 2:
        raise ConfigError("delta_max must be at least 2")
    if not isinstance(cfg.criteria, str):
        raise ConfigError(f"criteria must be a comma-separated string, got {cfg.criteria!r}")
    if not isinstance(cfg.params, dict):
        raise ConfigError(f"params must be an object, got {cfg.params!r}")
    if cfg.format not in ("json", "csv"):
        raise ConfigError(f"unknown format {cfg.format!r}")
    known = UNIFORM_CRITERIA + NONUNIFORM_CRITERIA
    unknown = sorted((cfg.selected_criteria() or set()) - set(known))
    if unknown:
        raise ConfigError(f"unknown criteria {unknown}; choose from {', '.join(known)}")
    return cfg
