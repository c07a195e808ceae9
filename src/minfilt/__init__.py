"""Minimal-multiplication FIR basic operations.

Factorizes the two-adjacent-output filtering step y = a_post @ diag(s) @
a_pre @ x so an m-tap filter needs fewer scalar multiplications than the
direct 2m, keeps an exact-arithmetic verification path, and models the fully
parallel hardware cost.
"""

from . import cost, kernels, plan, reference, stream
from .cost import *
from .kernels import *
from .plan import *
from .reference import *
from .stream import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of what it exports.
__all__ = [name for mod in (cost, kernels, plan, reference, stream) for name in mod.__all__]
