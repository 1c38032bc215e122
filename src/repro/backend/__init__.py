"""Pluggable array-ops backends for the five vectorized engines.

One small facade (:class:`~repro.backend.base.ArrayBackend`: ``gather``,
``scatter``, ``scatter_add``, ``bincount``, ``cummax``, ``take_wrap``,
``ring_advance``) sits behind the hot kernels of graph build, the
queued-routing ring buffer, WireTable build/validate, packaging
bincounts, and batched Benes cycle-chasing.  Selection, in precedence
order:

1. an explicit ``backend=`` kwarg on the engine entry point (a name or
   an :class:`ArrayBackend` instance),
2. the ``REPRO_BACKEND`` environment variable,
3. the default, ``"numpy"``.

Registered backends: ``numpy`` (the reference, always available) and
``numba`` (the ``_kernels`` loop bodies jit-compiled; optional).  If numba
is not installed, selecting it raises :class:`BackendUnavailable` with a
clear message.  The same loop bodies run uncompiled in the conformance
backend of ``tests/oracles/backend.py``, which tests pass as an instance.

Shared-memory (zero-copy) array handoff for multiprocessing workers
lives in :mod:`repro.backend.shm`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Type, Union

from .base import ArrayBackend, BackendUnavailable, NumpyBackend
from .numba_backend import NumbaBackend
from . import shm

__all__ = [
    "ArrayBackend",
    "BackendUnavailable",
    "NumpyBackend",
    "NumbaBackend",
    "get_backend",
    "available_backends",
    "shm",
]

BACKENDS: Dict[str, Type[ArrayBackend]] = {
    "numpy": NumpyBackend,
    "numba": NumbaBackend,
}

_CACHE: Dict[str, ArrayBackend] = {}


def get_backend(backend: Union[str, ArrayBackend, None] = None) -> ArrayBackend:
    """Resolve a backend: kwarg > ``REPRO_BACKEND`` env var > numpy.

    Accepts a registered name, an :class:`ArrayBackend` instance (passed
    through), or ``None`` to consult the environment.  Raises
    :class:`BackendUnavailable` if the selected backend's dependency is
    missing, ``ValueError`` for an unknown name.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    name = backend
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "").strip() or "numpy"
    key = str(name).lower()
    if key not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(BACKENDS)}"
        )
    hit = _CACHE.get(key)
    if hit is None:
        hit = _CACHE[key] = BACKENDS[key]()
    return hit


def available_backends() -> List[str]:
    """Names of registered backends that construct successfully here."""
    out = []
    for key in BACKENDS:
        try:
            get_backend(key)
        except BackendUnavailable:
            continue
        out.append(key)
    return out
