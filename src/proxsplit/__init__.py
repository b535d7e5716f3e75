"""proxsplit: a proximal-splitting convex optimization toolkit.

Modules:

* ``core``     -- vectors, function/operator wrappers, schedules, diagnostics
* ``scalar``   -- elementwise 1-D root finding and Lambert W
* ``catalog``  -- array-native scalar prox kinds and prox calculus combinators
* ``sets``     -- closed convex sets with exact projections
* ``solvers``  -- the splitting algorithms
* ``problems`` -- builders for the worked desk-scale examples
* ``cli``      -- the ``proxsplit`` command-line front end (``python -m proxsplit``);
  imported on first use, so that ``python -m proxsplit.cli`` runs it cleanly
"""

import importlib

from . import catalog, core, problems, scalar, sets, solvers
from .core import (
    LinearMap,
    ProxFn,
    Schedule,
    SmoothFn,
    SolveResult,
    identity_map,
    matrix_map,
    operator_norm,
    subgradient_certificate,
)
from .solvers import StoppingRule

__all__ = [
    "catalog",
    "cli",
    "core",
    "problems",
    "scalar",
    "sets",
    "solvers",
    "LinearMap",
    "ProxFn",
    "Schedule",
    "SmoothFn",
    "SolveResult",
    "StoppingRule",
    "identity_map",
    "matrix_map",
    "operator_norm",
    "subgradient_certificate",
]

__version__ = "0.1.0"


def __getattr__(name):
    # ``proxsplit.cli`` is loaded on first access instead of at import time:
    # an eager import puts it in sys.modules before ``python -m proxsplit.cli``
    # runs it, which makes runpy warn
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
