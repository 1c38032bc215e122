"""Net codes through the chunked validator.

Pins the int64 net-code column the streaming pipeline carries instead
of net tuples: the builders' packed codes are injective and decode to
the exact nets, an overflowing codec falls back to interning, the
``terminals-distinct`` check compares codes exactly like the monolithic
validator compares nets across chunk / bucket / worker boundaries, and
the spill directory holds raw ``.npy`` parts only.
"""

import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.layout import (
    build_grid_layout,
    chunked_collinear_table,
    chunked_grid_table,
    collinear_layout,
    parallel_validate,
    validate_table,
    validate_table_chunked,
)
from repro.layout import chunked as chunked_mod
from repro.layout.chunked import ChunkedValidator
from repro.layout.netcode import GRID_KINDS, NetCodec, NetInterner
from repro.layout.wiretable import WireTable
from repro.topology.complete import complete_multigraph
from repro.topology.graph import Graph

SLOW = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_reports_identical(got, want) -> None:
    assert got.checks_run == want.checks_run
    assert got.ok == want.ok
    assert got.num_errors == want.num_errors
    assert got.errors == want.errors


# ---------------------------------------------------------------------------
# codec: injective, exact decode, clean overflow
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    rows_log=st.integers(min_value=0, max_value=16),
    stages=st.integers(min_value=1, max_value=17),
    data=st.data(),
)
def test_grid_codec_roundtrip_up_to_b16(rows_log, stages, data):
    rows = 1 << rows_log
    codec = NetCodec.grid(rows, stages)
    assert codec is not None
    field = st.tuples(
        st.integers(0, rows - 1), st.integers(0, stages - 1),
        st.integers(0, rows - 1), st.integers(0, stages - 1),
        st.integers(0, len(GRID_KINDS) - 1),
    )
    fs = data.draw(st.lists(field, min_size=1, max_size=40))
    cols = [np.array(c, dtype=np.int64) for c in zip(*fs)]
    codes = codec.pack(*cols)
    nets = [((u, s), (v, t), GRID_KINDS[k]) for u, s, v, t, k in fs]
    decoded = [codec(c) for c in codes.tolist()]
    assert repr(decoded) == repr(nets)
    assert len(set(codes.tolist())) == len(set(nets))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=1 << 16),
    m=st.integers(min_value=1, max_value=17),
    data=st.data(),
)
def test_collinear_codec_roundtrip(n, m, data):
    codec = NetCodec.collinear(n, m)
    fs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, m - 1)),
        min_size=1, max_size=40,
    ))
    codes = codec.pack(*[np.array(c, dtype=np.int64) for c in zip(*fs)])
    assert repr([codec(c) for c in codes.tolist()]) == repr(fs)
    assert len(set(codes.tolist())) == len(set(fs))


def test_codec_overflow_boundary():
    # codes live in [0, 2**63): a radix product of exactly 2**63 fits
    top = NetCodec.collinear(1 << 21, 1 << 21)
    assert top is not None
    last = (1 << 21) - 1
    assert int(top.pack([last], [last], [last])[0]) == (1 << 63) - 1
    assert top((1 << 63) - 1) == (last, last, last)
    assert NetCodec.collinear(1 << 21, (1 << 21) + 1) is None
    assert NetCodec.grid(1 << 31, 4) is None


@SLOW
@given(
    ks=st.sampled_from([(2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 1, 1, 1),
                        (3, 2, 2)]),
    recirculating=st.booleans(),
    budget=st.sampled_from([None, 1, 8192]),
)
def test_grid_builder_codes_decode_exactly(ks, recirculating, budget):
    build = chunked_grid_table(ks, recirculating=recirculating,
                               memory_budget_bytes=budget)
    nets, codes = [], []
    for t in build.chunks():
        assert t.net_code is not None and t.net_code.dtype == np.int64
        codes.extend(t.net_code.tolist())
        nets.extend(t.nets)
    assert repr([build.net_decoder(c) for c in codes]) == repr(nets)
    assert len(set(codes)) == len(set(nets))
    shipped = pickle.loads(pickle.dumps(build.net_decoder))
    assert [shipped(c) for c in codes] == nets
    if recirculating:
        assert any(net[2] == "feedback" for net in nets)
    # concat carries the codes beside the monolithic columns
    table = build.table()
    mono = build_grid_layout(ks, recirculating=recirculating)
    assert table.nets == mono.layout.wire_table().nets
    assert table.net_code.tolist() == codes


@SLOW
@given(
    n=st.integers(min_value=2, max_value=7),
    m=st.integers(min_value=1, max_value=3),
    budget=st.sampled_from([None, 1, 4096]),
)
def test_collinear_builder_codes_decode_exactly(n, m, budget):
    build = chunked_collinear_table(n, m, memory_budget_bytes=budget)
    t = build.table()
    assert repr([build.net_decoder(c) for c in t.net_code.tolist()]) == \
        repr(t.nets)
    assert len(set(t.net_code.tolist())) == len(set(t.nets))


def test_overflowing_codec_falls_back_to_interning(monkeypatch):
    monkeypatch.setattr(chunked_mod.NetCodec, "grid",
                        classmethod(lambda cls, rows, stages: None))
    ks = (2, 2, 1)
    build = chunked_grid_table(ks, memory_budget_bytes=8192)
    assert build.net_decoder is None
    assert all(t.net_code is None for t in build.chunks())
    res = build_grid_layout(ks)
    want = validate_table(res.layout.wire_table(), build.nodes, build.model,
                          graph=res.graph)
    assert_reports_identical(build.validate(graph=res.graph), want)
    for workers in (1, 2):
        assert_reports_identical(
            build.validate(graph=res.graph, workers=workers), want)


def test_interner_codes_and_decode():
    it = NetInterner()
    a = it.codes([(1, 2), (3, 4), (1, 2)])
    b = it.codes([(3, 4), "x"])
    assert a.tolist() == [0, 1, 0] and b.tolist() == [1, 2]
    assert [it(c) for c in range(3)] == [(1, 2), (3, 4), "x"]


def test_decoder_requires_chunk_codes():
    lay = collinear_layout(4, 1).layout
    v = ChunkedValidator(lay.nodes, lay.model,
                         net_decoder=NetCodec.collinear(4, 1))
    try:
        with pytest.raises(ValueError, match="net_code"):
            v.feed(lay.wire_table())
    finally:
        v.close()


@pytest.mark.parametrize("workers", [None, 2])
def test_realizes_fallback_keeps_first_occurrence_order(workers):
    # against an edgeless graph every wire is an extra edge; the report
    # names the first five in table order, which is not code order
    ks = (2, 1, 1)
    build = chunked_grid_table(ks, memory_budget_bytes=1)
    res = build_grid_layout(ks)
    g = Graph()
    g.add_nodes(res.graph.nodes())
    want = validate_table(res.layout.wire_table(), build.nodes, build.model,
                          graph=g)
    assert sum("has no graph edge" in e for e in want.errors) == 5
    assert_reports_identical(build.validate(graph=g, workers=workers), want)


# ---------------------------------------------------------------------------
# terminals-distinct across chunk / bucket / worker boundaries
# ---------------------------------------------------------------------------


def _with_copy_of(t: WireTable, i: int, net) -> WireTable:
    """``t`` plus a copy of wire ``i``'s geometry appended as ``net``."""
    extra = t.slice_wires(i, i + 1)
    extra = WireTable(nets=[net], indptr=extra.indptr.copy(),
                      x1=extra.x1.copy(), y1=extra.y1.copy(),
                      x2=extra.x2.copy(), y2=extra.y2.copy(),
                      layer=extra.layer.copy())
    return WireTable.concat([t, extra])


@SLOW
@given(
    i=st.integers(min_value=0, max_value=9),
    same_net=st.booleans(),
    chunk_wires=st.integers(min_value=1, max_value=6),
    num_buckets=st.sampled_from([1, 3, 8]),
    workers=st.sampled_from([None, 1, 2, 3]),
)
def test_terminals_distinct_split_identity(i, same_net, chunk_wires,
                                           num_buckets, workers):
    lay = collinear_layout(5, 1).layout
    graph = complete_multigraph(5, 1)
    base = lay.wire_table()
    a, b, _c = base.nets[i]
    # the copy shares both terminals of wire i; as the same net that is
    # no error, as a different net (copy index 1) it is one per terminal
    t = _with_copy_of(base, i, (a, b, 0) if same_net else (a, b, 1))
    want = validate_table(t, lay.nodes, lay.model, graph=graph)
    clash = [e for e in want.errors if e.startswith("terminal point")]
    assert want.num_errors < 20  # every message is visible
    if same_net:
        assert not clash
    else:
        assert len(clash) == 2
        assert all(f"{(a, b, 0)} and {(a, b, 1)}" in e for e in clash)
    chunks = [t.slice_wires(lo, lo + chunk_wires)
              for lo in range(0, t.num_wires, chunk_wires)]
    if workers is None:
        got = validate_table_chunked(chunks, lay.nodes, lay.model,
                                     graph=graph, num_buckets=num_buckets)
    else:
        got = parallel_validate(chunks, lay.nodes, lay.model, graph=graph,
                                num_buckets=num_buckets, workers=workers)
    assert_reports_identical(got, want)


# ---------------------------------------------------------------------------
# spill: raw .npy parts only, nothing left behind
# ---------------------------------------------------------------------------


def _spilled_files(root):
    out = []
    for dirpath, _dirs, files in os.walk(root):
        out.extend(os.path.join(dirpath, f) for f in files)
    return out


@pytest.mark.parametrize("workers", [None, 2])
def test_spill_holds_only_npy_parts(tmp_path, workers):
    ks = (2, 2, 2)
    build = chunked_grid_table(ks, memory_budget_bytes=8192)
    res = build_grid_layout(ks)
    spill = tmp_path / "spill"
    rep = build.validate(graph=res.graph, spill_dir=str(spill),
                         workers=workers)
    assert rep.ok
    files = _spilled_files(spill)
    assert files
    for f in files:
        assert f.endswith(".npy")
        arr = np.load(f, allow_pickle=False)
        assert arr.dtype == np.int64 and arr.ndim == 1


def test_no_spill_directory_left_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    ks = (2, 2, 1)
    res = build_grid_layout(ks)
    for workers in (None, 1, 2):
        build = chunked_grid_table(ks, memory_budget_bytes=8192)
        assert build.validate_and_summarize(graph=res.graph,
                                            workers=workers)[0].ok
    lay = collinear_layout(5, 1).layout
    t = lay.wire_table()
    assert validate_table_chunked(
        [t.slice_wires(0, 4), t.slice_wires(4, 10)], lay.nodes, lay.model,
    ).ok
    left = [p for p in os.listdir(tmp_path)
            if p.startswith(("repro-chunked-", "repro-parallel-"))]
    assert left == []
