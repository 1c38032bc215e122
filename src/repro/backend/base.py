"""Array-ops backend facade: op contracts and the kernel-driven base.

The facade is deliberately tiny — seven operations cover the hot inner
loops of all five engines (graph build, queued-routing ring buffer,
WireTable build/validate, packaging bincounts, batched Benes
cycle-chasing):

``gather(a, idx)``
    ``a[idx]`` for 1-D ``a``; result has ``idx``'s shape and ``a``'s
    dtype.
``scatter(a, idx, vals)``
    In-place ``a[idx] = vals`` for 1-D ``a``; duplicate indices resolve
    last-write-wins.  Returns ``a``.
``scatter_add(a, idx, vals)``
    In-place unbuffered ``a[idx] += vals`` (``np.add.at`` semantics:
    duplicates accumulate).  Returns ``a``.
``bincount(x, weights=None, minlength=0)``
    ``np.bincount`` semantics for flat non-negative integer ``x``.
``cummax(a)``
    Running maximum of 1-D ``a`` (``np.maximum.accumulate``), new array.
``take_wrap(a, idx, out=None)``
    ``a.take(idx, mode="wrap", out=out)`` over ``a`` flattened —
    indices taken modulo ``a.size``.
``ring_advance(buf, counters, qids, dbits, mask, vals=None)``
    One step of the packed ring-buffer protocol shared by the queued
    simulator: queue ``q`` owns slots ``buf[q << dbits:(q+1) << dbits]``
    and ``counters[q] & mask`` is its cursor.  With ``vals is None``
    this *pops* (returns the read values), otherwise it *pushes*
    ``vals``; either way the touched cursors advance by one.  ``qids``
    must not contain duplicates.

Every implementation is NumPy-array-in / NumPy-array-out so engines are
backend-agnostic: results must match the reference ``numpy`` backend in
dtype, shape, and value (see ``tests/test_backend_conformance.py``).
"""

from __future__ import annotations

import numpy as np


class BackendUnavailable(RuntimeError):
    """Raised when a backend's runtime dependency is missing."""


class ArrayBackend:
    """Abstract op set; concrete backends override every method."""

    name = "abstract"

    def gather(self, a, idx):
        raise NotImplementedError

    def scatter(self, a, idx, vals):
        raise NotImplementedError

    def scatter_add(self, a, idx, vals):
        raise NotImplementedError

    def bincount(self, x, weights=None, minlength=0):
        raise NotImplementedError

    def cummax(self, a):
        raise NotImplementedError

    def take_wrap(self, a, idx, out=None):
        raise NotImplementedError

    def ring_advance(self, buf, counters, qids, dbits, mask, vals=None):
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyBackend(ArrayBackend):
    """Reference implementation: thin bindings to NumPy itself."""

    name = "numpy"

    def gather(self, a, idx):
        return a[idx]

    def scatter(self, a, idx, vals):
        a[idx] = vals
        return a

    def scatter_add(self, a, idx, vals):
        np.add.at(a, idx, vals)
        return a

    def bincount(self, x, weights=None, minlength=0):
        return np.bincount(x, weights=weights, minlength=minlength)

    def cummax(self, a):
        return np.maximum.accumulate(a)

    def take_wrap(self, a, idx, out=None):
        return a.take(idx, mode="wrap", out=out)

    def ring_advance(self, buf, counters, qids, dbits, mask, vals=None):
        # slot math must run in the qid dtype: counters may be a narrow
        # type (the sim uses int16 cursors) while qids span the buffer
        c = counters[qids]
        slots = (qids << dbits) | (c & mask)
        if vals is None:
            popped = buf[slots]
            counters[qids] = c + 1
            return popped
        buf[slots] = vals
        counters[qids] = c + 1
        return None


class KernelBackend(ArrayBackend):
    """Backend assembled from the loop kernels in ``_kernels``.

    ``jit`` transforms each kernel before use: ``numba.njit`` for the
    numba backend, ``None`` (identity) for the interpreted conformance
    backend the tests run.  All shape, dtype, and scalar-broadcast
    handling lives here, so it is covered by the interpreted conformance
    runs and shared verbatim by numba.
    """

    name = "kernel"

    def __init__(self, jit=None):
        from . import _kernels as k

        wrap = jit if jit is not None else (lambda f: f)
        self._gather = wrap(k.gather_loop)
        self._scatter = wrap(k.scatter_loop)
        self._scatter_scalar = wrap(k.scatter_scalar_loop)
        self._scatter_add = wrap(k.scatter_add_loop)
        self._scatter_add_scalar = wrap(k.scatter_add_scalar_loop)
        self._bincount = wrap(k.bincount_loop)
        self._bincount_weighted = wrap(k.bincount_weighted_loop)
        self._cummax = wrap(k.cummax_loop)
        self._take_wrap = wrap(k.take_wrap_loop)
        self._ring_pop = wrap(k.ring_pop_loop)
        self._ring_push = wrap(k.ring_push_loop)

    def gather(self, a, idx):
        idx = np.asarray(idx)
        flat = np.ascontiguousarray(idx).ravel()
        out = np.empty(flat.shape[0], dtype=a.dtype)
        self._gather(a, flat, out)
        return out.reshape(idx.shape)

    def scatter(self, a, idx, vals):
        idx = np.ascontiguousarray(idx).ravel()
        if np.ndim(vals) == 0:
            self._scatter_scalar(a, idx, a.dtype.type(vals))
        else:
            vals = np.ascontiguousarray(vals).ravel().astype(a.dtype, copy=False)
            self._scatter(a, idx, vals)
        return a

    def scatter_add(self, a, idx, vals):
        idx = np.ascontiguousarray(idx).ravel()
        if np.ndim(vals) == 0:
            self._scatter_add_scalar(a, idx, a.dtype.type(vals))
        else:
            vals = np.ascontiguousarray(vals).ravel().astype(a.dtype, copy=False)
            self._scatter_add(a, idx, vals)
        return a

    def bincount(self, x, weights=None, minlength=0):
        x = np.ascontiguousarray(x).ravel()
        length = int(minlength)
        if x.shape[0]:
            if int(x.min()) < 0:
                raise ValueError("bincount input must be non-negative")
            length = max(length, int(x.max()) + 1)
        if weights is None:
            out = np.zeros(length, dtype=np.intp)
            self._bincount(x, out)
        else:
            weights = np.ascontiguousarray(weights).ravel().astype(np.float64)
            out = np.zeros(length, dtype=np.float64)
            self._bincount_weighted(x, weights, out)
        return out

    def cummax(self, a):
        a = np.ascontiguousarray(a)
        out = np.empty_like(a)
        self._cummax(a, out)
        return out

    def take_wrap(self, a, idx, out=None):
        idx = np.asarray(idx)
        flat_idx = np.ascontiguousarray(idx).ravel()
        if out is None:
            out = np.empty(idx.shape, dtype=a.dtype)
        flat_out = out.reshape(-1)
        self._take_wrap(np.ascontiguousarray(a).ravel(), flat_idx, flat_out)
        return out

    def ring_advance(self, buf, counters, qids, dbits, mask, vals=None):
        qids = np.ascontiguousarray(qids).ravel()
        dbits = int(dbits)
        mask = int(mask)
        if vals is None:
            out = np.empty(qids.shape[0], dtype=buf.dtype)
            self._ring_pop(buf, counters, qids, dbits, mask, out)
            return out
        vals = np.ascontiguousarray(vals).ravel().astype(buf.dtype, copy=False)
        self._ring_push(buf, counters, qids, dbits, mask, vals)
        return None
