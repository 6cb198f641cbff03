"""Universal random-coding toolkit for sample-wise lossy compression.

Everything here is exact where the underlying object is exact: parse
lengths are integers, the universal distribution and sphere masses are
rationals, and the codec regenerates its codebook from a seed, so the
decoder never ships the codewords.

Each module's ``__all__`` is the one declaration of what it exports; the
package re-exports them all. ``unirdc.distortion`` is the function, which
shadows its module's name here.
"""
import sys as _sys

from .codec import *
from .converse import *
from .core import *
from .distortion import *
from .errors import *
from .experiments import *
from .lz78 import *
from .reference import *
from .universal import *

__version__ = "0.1.0"

_MODULES = (
    "codec", "converse", "core", "distortion", "errors",
    "experiments", "lz78", "reference", "universal",
)
__all__ = [name for module in _MODULES for name in _sys.modules[f"{__name__}.{module}"].__all__]
