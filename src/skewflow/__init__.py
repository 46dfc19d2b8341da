"""Skew-product flow construction and exponential-stability testing.

Build a system (from the gallery or the declarative family), then run the
uniform and nonuniform criterion panels against it:

    from skewflow import gallery, run_nonuniform_panel, RunConfig

    system = gallery.build("scalar_decay")
    verdict = run_nonuniform_panel(system, RunConfig())
    print(verdict.label)          # "UES"
"""

from .config import RunConfig
from .core import (
    ABSTRACT_REAL,
    SHIFT_PARAMETER,
    Horizons,
    StatePoint,
    System,
    apply_adjoint,
    apply_cocycle,
    check_cocycle_law,
    check_semiflow_law,
    dual_norm,
    operator_norm,
    shift_cocycle,
    vec_norm,
)
from .gauges import Gauge, make_gauge, validate_gauge
from .growth import GrowthEnvelope, estimate_growth, verify_growth
from .nonuniform import (
    NonuniformDecayFit,
    fit_nonuniform_decay,
    run_nonuniform_panel,
    test_barbashin_nonuniform,
    test_datko_nonuniform,
    test_decaying_majorant,
)
from .quadrature import IntegralResult, integrate_finite, integrate_tail, sum_tail
from .reports import CriterionReport, StabilityVerdict
from .uniform import (
    DecayFit,
    fit_exponential_decay,
    run_uniform_panel,
    test_barbashin,
    test_datko,
    test_discrete_decay,
    test_divergent_minorant,
    test_half_decay,
    test_uniform_stability,
)

__version__ = "0.1.0"

__all__ = [
    "ABSTRACT_REAL",
    "SHIFT_PARAMETER",
    "CriterionReport",
    "DecayFit",
    "Gauge",
    "GrowthEnvelope",
    "Horizons",
    "IntegralResult",
    "NonuniformDecayFit",
    "RunConfig",
    "StabilityVerdict",
    "StatePoint",
    "System",
    "apply_adjoint",
    "apply_cocycle",
    "check_cocycle_law",
    "check_semiflow_law",
    "dual_norm",
    "estimate_growth",
    "fit_exponential_decay",
    "fit_nonuniform_decay",
    "integrate_finite",
    "integrate_tail",
    "make_gauge",
    "operator_norm",
    "run_nonuniform_panel",
    "run_uniform_panel",
    "shift_cocycle",
    "sum_tail",
    "test_barbashin",
    "test_barbashin_nonuniform",
    "test_datko",
    "test_datko_nonuniform",
    "test_decaying_majorant",
    "test_discrete_decay",
    "test_divergent_minorant",
    "test_half_decay",
    "test_uniform_stability",
    "validate_gauge",
    "vec_norm",
    "verify_growth",
]
