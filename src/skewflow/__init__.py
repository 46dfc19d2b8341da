"""Skew-product flow construction and exponential-stability testing.

Build a system (from the gallery or the declarative family), then run the
uniform and nonuniform criterion panels against it:

    from skewflow import gallery, run_nonuniform_panel, RunConfig

    system = gallery.build("scalar_decay")
    verdict = run_nonuniform_panel(system, RunConfig())
    print(verdict.label)          # "UES"

Everything else lives in its module (``skewflow.core``,
``skewflow.quadrature``, ``skewflow.uniform``, ...).
"""

from . import gallery
from .config import RunConfig
from .nonuniform import run_nonuniform_panel
from .uniform import run_uniform_panel

__version__ = "0.1.0"

__all__ = ["RunConfig", "gallery", "run_nonuniform_panel", "run_uniform_panel"]
