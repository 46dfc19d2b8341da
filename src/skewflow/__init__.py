"""Skew-product flow construction and exponential-stability testing.

Build a system (``gallery.build`` or ``gallery.build_custom``) and run
``run_nonuniform_panel(system, RunConfig())`` on it, as in the README's
quick start.  Everything else lives in its module (``skewflow.core``,
``skewflow.quadrature``, ``skewflow.uniform``, ...).
"""

from . import gallery
from .config import RunConfig
from .nonuniform import run_nonuniform_panel

__version__ = "0.1.0"

__all__ = ["RunConfig", "gallery", "run_nonuniform_panel"]
