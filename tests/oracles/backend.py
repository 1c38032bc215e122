"""The interpreted-loop conformance backend.

:class:`PythonBackend` runs the ``_kernels`` loop bodies that the numba
backend jit-compiles, uncompiled.  It gives the conformance grid a
genuinely different execution path on machines without numba, and keeps
the kernel bodies under test coverage.  It is not registered in
:data:`repro.backend.BACKENDS`; tests pass an instance as ``backend=``.
"""

from __future__ import annotations

from repro.backend.base import KernelBackend

__all__ = ["PythonBackend"]


class PythonBackend(KernelBackend):
    """Interpreted loop kernels; slow, for conformance testing."""

    name = "python"

    def __init__(self):
        super().__init__(jit=None)
