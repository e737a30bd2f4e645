"""Conditional drift estimation for geometric Brownian motion.

The package measures the optimism baked into drift estimates that are
formed only after observing a favorable return (a return-chasing rule),
and provides smoothing-based corrections plus residual diagnostics.
"""

from . import conditional, diagnostics, errors, gbm, pipeline, smoothing
from .conditional import *
from .diagnostics import *
from .errors import *
from .gbm import *
from .pipeline import *
from .smoothing import *

__version__ = "0.1.0"

__all__ = [
    *conditional.__all__,
    *diagnostics.__all__,
    *errors.__all__,
    *gbm.__all__,
    *pipeline.__all__,
    *smoothing.__all__,
    "__version__",
]
