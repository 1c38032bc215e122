"""Cross-backend conformance for the array-ops facade.

Two layers of pinning:

* an **op-level grid** — every facade op, on every constructible
  backend, against the NumPy reference: dtype, shape, and value
  equality, including empty and single-element inputs and in-place
  mutation semantics;
* **whole-engine differentials** — layout verdicts, packaging counts,
  Benes settings, and queued-sim traces must be identical under
  ``REPRO_BACKEND=<alt>`` (and the ``backend=`` kwarg) as under the
  NumPy default.

The ``python`` conformance backend (interpreted loop kernels, from
``tests/oracles/backend.py``) always runs and is passed as an instance;
``numba`` runs when importable and is skipped — never failed — otherwise.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    ArrayBackend,
    BackendUnavailable,
    NumpyBackend,
    available_backends,
    get_backend,
)
from repro.backend import shm
from repro.algorithms.benes_routing import route_permutations
from repro.algorithms.queued_routing import simulate_butterfly_queued
from repro.layout import collinear_layout, validate_table
from repro.packaging.optimizer import optimize_packaging
from repro.packaging.partition import RowPartition
from repro.packaging.pins import count_off_module_links
from repro.transform.swap_butterfly import SwapButterfly
from tests.oracles.backend import PythonBackend

REF = NumpyBackend()
AVAILABLE = available_backends()
ALT_BACKENDS = [
    pytest.param(
        name,
        marks=() if name in ("python", *AVAILABLE) else pytest.mark.skip(
            reason=f"backend {name!r} unavailable here"
        ),
    )
    for name in ("python", "numba")
]


def _alt(name):
    """The backend an ``ALT_BACKENDS`` name stands for: the interpreted
    conformance backend, or a registered one."""
    return PythonBackend() if name == "python" else get_backend(name)


def backends():
    names = ["numpy", "python"] + [n for n in AVAILABLE if n != "numpy"]
    return [pytest.param(_alt(n), id=n) for n in names]


# ---------------------------------------------------------------------------
# op-level conformance grid
# ---------------------------------------------------------------------------

I64 = np.int64
rng = np.random.default_rng(1234)


def _gather_cases():
    yield np.arange(10, dtype=I64), np.array([3, 0, 9, 3], dtype=I64)
    yield np.arange(5, dtype=np.int32), np.array([4], dtype=I64)
    yield np.arange(7, dtype=np.float64), np.zeros(0, dtype=I64)
    yield rng.integers(0, 100, 64).astype(I64), rng.integers(0, 64, 257)
    yield np.array([42], dtype=I64), np.zeros(11, dtype=I64)


def _scatter_cases():
    # (a, idx, vals); duplicate indices resolve last-write-wins
    yield (np.zeros(8, dtype=I64), np.array([1, 5, 1], dtype=I64),
           np.array([10, 20, 30], dtype=I64))
    yield (np.zeros(4, dtype=np.float64), np.array([2], dtype=I64),
           np.array([1.5]))
    yield (np.arange(6, dtype=I64), np.zeros(0, dtype=I64),
           np.zeros(0, dtype=I64))
    yield (np.zeros(16, dtype=np.int16), np.arange(16, dtype=I64),
           np.arange(16, dtype=np.int16))


def _scatter_add_cases():
    yield (np.zeros(8, dtype=I64), np.array([1, 5, 1, 1], dtype=I64),
           np.array([1, 2, 3, 4], dtype=I64))
    yield (np.ones(3, dtype=np.float64), np.array([0], dtype=I64),
           np.array([2.5]))
    yield (np.arange(5, dtype=I64), np.zeros(0, dtype=I64),
           np.zeros(0, dtype=I64))
    yield (np.zeros(32, dtype=I64),
           rng.integers(0, 32, 500).astype(I64),
           np.ones(500, dtype=I64))
    # scalar vals broadcast
    yield (np.zeros(8, dtype=I64), np.array([3, 3, 7], dtype=I64), 1)


def _bincount_cases():
    yield np.array([0, 1, 1, 4], dtype=I64), None, 0
    yield np.zeros(0, dtype=I64), None, 5
    yield np.array([2], dtype=I64), None, 0
    yield (np.array([0, 0, 3], dtype=I64),
           np.array([0.5, 1.5, 2.0]), 6)
    yield rng.integers(0, 50, 1000).astype(I64), None, 64


def _cummax_cases():
    yield np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=I64)
    yield np.zeros(0, dtype=I64)
    yield np.array([-7], dtype=I64)
    yield np.array([2.0, -1.0, 3.5, 3.5, 0.0])
    yield rng.integers(-1000, 1000, 999).astype(I64)


def _take_wrap_cases():
    yield np.arange(10, dtype=I64), np.array([0, 9, 10, 25, -1], dtype=I64)
    yield np.array([5], dtype=I64), np.arange(7, dtype=I64)
    yield np.arange(6, dtype=np.int32), np.zeros(0, dtype=I64)


@pytest.mark.parametrize("be", backends())
class TestOpConformance:
    def test_gather(self, be):
        for a, idx in _gather_cases():
            want = REF.gather(a.copy(), idx.copy())
            got = be.gather(a.copy(), idx.copy())
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_scatter(self, be):
        for a, idx, vals in _scatter_cases():
            aw, ag = a.copy(), a.copy()
            want = REF.scatter(aw, idx, vals)
            got = be.scatter(ag, idx, vals)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(ag, aw), "in-place mutation differs"

    def test_scatter_add(self, be):
        for a, idx, vals in _scatter_add_cases():
            aw, ag = a.copy(), a.copy()
            want = REF.scatter_add(aw, idx, vals)
            got = be.scatter_add(ag, idx, vals)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(ag, aw), "in-place mutation differs"

    def test_bincount(self, be):
        for x, w, ml in _bincount_cases():
            want = REF.bincount(x, weights=w, minlength=ml)
            got = be.bincount(x, weights=w, minlength=ml)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_cummax(self, be):
        for a in _cummax_cases():
            want = REF.cummax(a.copy())
            got = be.cummax(a.copy())
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_take_wrap(self, be):
        for a, idx in _take_wrap_cases():
            want = REF.take_wrap(a.copy(), idx)
            got = be.take_wrap(a.copy(), idx)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_take_wrap_out(self, be):
        a = np.arange(10, dtype=I64)
        idx = np.array([1, 11, 21], dtype=I64)
        out_w = np.zeros(3, dtype=I64)
        out_g = np.zeros(3, dtype=I64)
        REF.take_wrap(a, idx, out=out_w)
        be.take_wrap(a, idx, out=out_g)
        assert np.array_equal(out_g, out_w)

    def test_ring_advance_pop_push(self, be):
        # the queued sim's exact shapes: int16 cursors, packed buffer
        dbits, mask = 3, (1 << 3) - 1
        nq = 5
        for qids in (np.array([0, 2, 4], dtype=I64),
                     np.zeros(0, dtype=I64),
                     np.array([1], dtype=I64)):
            buf_w = np.arange(nq << dbits, dtype=I64)
            buf_g = buf_w.copy()
            cnt_w = np.array([0, 7, 3, 1, 6], dtype=np.int16)
            cnt_g = cnt_w.copy()
            popped_w = REF.ring_advance(buf_w, cnt_w, qids, dbits, mask)
            popped_g = be.ring_advance(buf_g, cnt_g, qids, dbits, mask)
            if qids.size:
                assert popped_g.dtype == popped_w.dtype
                assert np.array_equal(popped_g, popped_w)
            assert np.array_equal(cnt_g, cnt_w)
            vals = -(qids + 1)
            assert REF.ring_advance(buf_w, cnt_w, qids, dbits, mask, vals) is None
            assert be.ring_advance(buf_g, cnt_g, qids, dbits, mask, vals) is None
            assert np.array_equal(buf_g, buf_w)
            assert np.array_equal(cnt_g, cnt_w)


# ---------------------------------------------------------------------------
# selection and availability
# ---------------------------------------------------------------------------


def test_registry_and_reference_available():
    assert set(BACKENDS) == {"numpy", "numba"}
    assert "numpy" in AVAILABLE


def test_get_backend_precedence(monkeypatch):
    import repro.backend as rb

    # register the conformance backend so the env path has a non-default
    # name to resolve, on a fresh instance cache
    monkeypatch.setitem(rb.BACKENDS, "python", PythonBackend)
    monkeypatch.setattr(rb, "_CACHE", {})
    monkeypatch.setenv("REPRO_BACKEND", "python")
    assert get_backend().name == "python"
    assert get_backend("numpy").name == "numpy"  # kwarg wins over env
    inst = get_backend("python")
    assert get_backend(inst) is inst  # instances pass through
    monkeypatch.delenv("REPRO_BACKEND")
    assert get_backend().name == "numpy"  # default


def test_unknown_backend_rejected():
    for name in ("fortran", "cupy", "python"):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend(name)


def test_missing_dependency_reports_unavailable():
    if "numba" in AVAILABLE:
        pytest.skip("numba importable here; the unavailable path is not")
    with pytest.raises(BackendUnavailable, match="numba"):
        get_backend("numba")


def test_shm_roundtrip_and_views():
    a = np.arange(100, dtype=I64)
    b = rng.random(33)
    with shm.share_arrays(a=a, b=b) as pack:
        assert sorted(pack.keys) == ["a", "b"]
        assert np.array_equal(shm.read_array(pack, "a"), a)
        block, views = shm.attach(pack)
        try:
            assert np.array_equal(views["a"], a)
            assert np.array_equal(views["b"], b)
            # zero-copy: the view aliases the shared buffer, not a pickle
            assert views["a"].base is not None
        finally:
            del views
            block.close()


# ---------------------------------------------------------------------------
# whole-engine differentials: alt backend vs numpy, kwarg and env paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_layout_verdicts_match(alt, monkeypatch):
    be = _alt(alt)
    lay = collinear_layout(6, 2).layout
    t = lay.wire_table()
    ref = validate_table(t, lay.nodes, lay.model, backend="numpy")
    got = validate_table(t, lay.nodes, lay.model, backend=be)
    assert (got.ok, got.num_errors, got.errors) == (
        ref.ok, ref.num_errors, ref.errors)
    # break a track: both backends must report the identical messages
    bad = lay.wire_table()
    h = np.flatnonzero((bad.y1 == bad.y2) & (bad.x1 != bad.x2))
    bad = type(bad)(
        nets=list(bad.nets), indptr=bad.indptr.copy(),
        x1=bad.x1.copy(), y1=bad.y1.copy(), x2=bad.x2.copy(),
        y2=bad.y2.copy(), layer=bad.layer.copy(),
    )
    bad.y1[h[0]] = bad.y2[h[0]] = bad.y1[h[3]]
    ref_bad = validate_table(bad, lay.nodes, lay.model, backend="numpy")
    got_bad = validate_table(bad, lay.nodes, lay.model, backend=be)
    assert not ref_bad.ok
    assert (got_bad.ok, got_bad.num_errors, got_bad.errors) == (
        ref_bad.ok, ref_bad.num_errors, ref_bad.errors)
    # env-var selection path resolves identically (registered names)
    if alt not in BACKENDS:
        return
    monkeypatch.setenv("REPRO_BACKEND", alt)
    got_env = validate_table(t, lay.nodes, lay.model)
    assert (got_env.ok, got_env.num_errors) == (ref.ok, ref.num_errors)


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_packaging_counts_match(alt):
    sb = SwapButterfly.from_ks((2, 2, 1))
    part = RowPartition(sb, row_bits=2)
    be = _alt(alt)
    ref = count_off_module_links(part, backend="numpy")
    got = count_off_module_links(part, backend=be)
    assert got.per_module == ref.per_module
    assert got.nodes_per_module == ref.nodes_per_module
    assert (got.num_modules, got.total_links, got.off_module_links) == \
           (ref.num_modules, ref.total_links, ref.off_module_links)
    ref_c = optimize_packaging(5, exact=True, backend="numpy")
    got_c = optimize_packaging(5, exact=True, backend=be)
    assert [(c.ks, c.scheme, c.num_modules, c.pins_per_module)
            for c in got_c] == \
           [(c.ks, c.scheme, c.num_modules, c.pins_per_module)
            for c in ref_c]


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_benes_settings_match(alt):
    g = np.random.default_rng(7)
    perms = np.stack([g.permutation(16) for _ in range(9)])
    ref = route_permutations(perms, backend="numpy")
    got = route_permutations(perms, backend=_alt(alt))
    assert got.n == ref.n
    assert np.array_equal(got.crossed, ref.crossed)


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_sim_traces_match(alt, monkeypatch):
    ref = simulate_butterfly_queued(3, 0.35, cycles=220, warmup=40, seed=5,
                                    trace=True, backend="numpy")
    # registered names go through the env var, the conformance backend
    # through the kwarg
    kw = {}
    if alt in BACKENDS:
        monkeypatch.setenv("REPRO_BACKEND", alt)
    else:
        kw["backend"] = _alt(alt)
    got = simulate_butterfly_queued(3, 0.35, cycles=220, warmup=40, seed=5,
                                    trace=True, **kw)
    assert (got.offered, got.delivered, got.drained, got.max_queue) == \
           (ref.offered, ref.delivered, ref.drained, ref.max_queue)
    assert got.avg_latency == ref.avg_latency
    for f in ("cycle", "injected", "delivered", "in_flight", "max_depth",
              "depth_hist"):
        assert np.array_equal(getattr(got.trace, f), getattr(ref.trace, f)), f


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_chunked_validation_matches_across_backends(alt):
    from repro.layout import chunked_collinear_table
    c = chunked_collinear_table(6, 2, memory_budget_bytes=4096)
    ref = c.validate(backend="numpy")
    got = c.validate(backend=_alt(alt))
    assert (got.ok, got.num_errors, got.errors, got.checks_run) == \
           (ref.ok, ref.num_errors, ref.errors, ref.checks_run)
