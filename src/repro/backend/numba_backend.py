"""Numba-jitted backend: ``_kernels`` compiled with ``numba.njit``.

The kernel bodies are exactly the ones the conformance suite runs
interpreted and pins against NumPy, so compiling them changes speed, not
semantics.  When numba is not
installed, constructing the backend raises
:class:`~repro.backend.base.BackendUnavailable` with a clear message.
"""

from __future__ import annotations

from .base import BackendUnavailable, KernelBackend

try:
    import numba
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None


class NumbaBackend(KernelBackend):
    """JIT-compiled loop kernels (requires the optional numba package)."""

    name = "numba"

    def __init__(self):
        if numba is None:
            raise BackendUnavailable(
                "the 'numba' backend requires the numba package, which is "
                "not installed; use REPRO_BACKEND=numpy (default) instead"
            )
        super().__init__(jit=numba.njit(cache=False, nogil=True))
