"""The kernels module the engines call.

Engines look kernels up as `backend.kernels.<name>` at call time, so a
caller can replace a kernel attribute here (timing wrappers do) and every
engine sees it.
"""

from . import _kernels_pure as kernels

BACKEND = kernels.BACKEND
