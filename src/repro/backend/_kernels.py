"""Loop kernels behind the numba array backend.

Each kernel is written in the nopython subset of Python (plain loops,
scalar indexing, no fancy NumPy) so the same function object can run
either compiled with ``numba.njit`` (the ``numba`` backend) or as-is
(the interpreted conformance backend of the tests).  Keeping one body
for both means the conformance tests exercise exactly the code numba
compiles, even where numba is not installed.

All kernels take flat (1-D) arrays and preallocated outputs; shape and
dtype handling lives in :class:`repro.backend.base.KernelBackend`.
"""

from __future__ import annotations


def gather_loop(a, idx, out):
    """out[i] = a[idx[i]] for flat ``a``/``idx``/``out``."""
    for i in range(idx.shape[0]):
        out[i] = a[idx[i]]


def scatter_loop(a, idx, vals):
    """a[idx[i]] = vals[i]; duplicate indices resolve last-write-wins."""
    for i in range(idx.shape[0]):
        a[idx[i]] = vals[i]


def scatter_scalar_loop(a, idx, val):
    """a[idx[i]] = val for a scalar fill value."""
    for i in range(idx.shape[0]):
        a[idx[i]] = val


def scatter_add_loop(a, idx, vals):
    """a[idx[i]] += vals[i]; duplicate indices accumulate."""
    for i in range(idx.shape[0]):
        a[idx[i]] += vals[i]


def scatter_add_scalar_loop(a, idx, val):
    """a[idx[i]] += val for a scalar increment."""
    for i in range(idx.shape[0]):
        a[idx[i]] += val


def bincount_loop(x, out):
    """out[x[i]] += 1 over flat non-negative ``x``."""
    for i in range(x.shape[0]):
        out[x[i]] += 1


def bincount_weighted_loop(x, weights, out):
    """out[x[i]] += weights[i] over flat non-negative ``x``."""
    for i in range(x.shape[0]):
        out[x[i]] += weights[i]


def cummax_loop(a, out):
    """Running maximum of flat ``a`` into ``out`` (same length)."""
    n = a.shape[0]
    if n == 0:
        return
    m = a[0]
    out[0] = m
    for i in range(1, n):
        v = a[i]
        if v > m:
            m = v
        out[i] = m


def take_wrap_loop(a, idx, out):
    """out[i] = a[idx[i] mod len(a)] — NumPy's ``take(mode="wrap")``."""
    n = a.shape[0]
    for i in range(idx.shape[0]):
        out[i] = a[idx[i] % n]


def ring_pop_loop(buf, counters, qids, dbits, mask, out):
    """Pop one slot per (unique) queue id from a packed ring buffer.

    Queue ``q`` owns the slice ``buf[q << dbits : (q + 1) << dbits]``;
    ``counters[q] & mask`` is its cursor.  Reads the slot, then
    advances the cursor.
    """
    for i in range(qids.shape[0]):
        q = qids[i]
        c = counters[q]
        out[i] = buf[(q << dbits) | (c & mask)]
        counters[q] = c + 1


def ring_push_loop(buf, counters, qids, dbits, mask, vals):
    """Push one value per (unique) queue id into a packed ring buffer."""
    for i in range(qids.shape[0]):
        q = qids[i]
        c = counters[q]
        buf[(q << dbits) | (c & mask)] = vals[i]
        counters[q] = c + 1
