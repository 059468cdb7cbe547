"""JIT plumbing: numba acceleration with a pure numpy/Python fallback.

Set the environment variable TEIG_NO_NUMBA=1 to force the fallback path
(kernels then run as plain interpreted functions on numpy arrays).
"""

import os

_disabled = os.environ.get("TEIG_NO_NUMBA", "").strip() not in ("", "0")

try:
    if _disabled:
        raise ImportError("numba disabled via TEIG_NO_NUMBA")
    from numba import njit as _njit

    JIT_ENABLED = True

    def jit(func):
        """Compile a hot kernel with numba (nopython, cached)."""
        return _njit(cache=True)(func)

except ImportError:
    JIT_ENABLED = False

    def jit(func):
        """Fallback: leave the kernel as a plain Python function."""
        return func
