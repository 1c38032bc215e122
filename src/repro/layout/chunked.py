"""Chunked (out-of-core) WireTable construction, validation and stats.

The monolithic builders materialise every wire of a layout before
anything can be validated, which for ``B_18``-class grids means multi-GB
segment arrays.  This module streams the same layouts as a sequence of
:class:`~repro.layout.wiretable.WireTable` *chunks* under an explicit
``memory_budget_bytes``, with two exactness guarantees pinned by
``tests/test_wiretable_chunked.py``:

* **build identity** — concatenating the chunks reproduces the
  monolithic table byte for byte (same wires, same order, same columns);
* **verdict identity** — :func:`validate_table_chunked` and
  :func:`summarize_chunks` return byte-identical
  :class:`~repro.layout.validate.ValidationReport` contents (``ok``,
  ``num_errors``, ``errors``, ``checks_run``) and ``Layout.summary()``
  dicts without ever holding the whole table.

Chunk sources exploit each builder's order structure:

* collinear (:func:`chunked_collinear_table`) — the table is strictly
  per-wire, so any wire range ``[lo, hi)`` regenerates independently
  from :func:`~repro.layout.collinear.track_assignment_arrays`;
* grid scheme (:func:`chunked_grid_table`) — the legacy emission order
  factors into three phases (intra wires block-major, then level >= 3
  inter wires by grid column, then level-2 inter wires by grid row) and
  every ranking is local to a block / grid column / grid row, so
  :func:`~repro.layout.grid_table._grid_cats` rebuilds any closed block
  subset exactly.  Chunk granularity is therefore whole blocks (intra)
  and whole grid columns/rows (inter) — the budget is honoured down to
  that floor;
* both recipe sources also emit an injective int64 ``net_code`` per wire
  (:class:`~repro.layout.netcode.NetCodec`) and hand the validator its
  decoder;
* 2-D grids (:func:`chunked_grid2d_table`) — emission order is channel
  by channel; a first pass computes demands without retaining graphs and
  a second pass streams the dogleg rows.

Validation partitions each grouped check's rows into disk-spilled hash
buckets keyed by the check's group key (track, via point, channel
coordinate) so every comparison group lands wholly in one bucket; the
per-bucket sweeps are the *same* core functions the monolithic
:func:`~repro.layout.validate.validate_table` runs, and their keyed
messages merge back into the monolithic emission order before the
global ``MAX_ERRORS_KEPT`` cap is applied.

Nets never enter the spill: every spilled row carries its wire's int64
net code (the builder's, or one a :class:`~repro.layout.netcode.NetInterner`
assigns), and the spill files are raw int64 ``.npy`` arrays — one per
fed chunk or per ~8 MiB of rows, each holding the bucket-sorted rows of
every check, read back by byte range.  ``terminals-distinct`` compares
codes, the realizes-graph tally keeps codes until its array fast path
fails, and the bucket sweeps write nets into their messages as code
placeholders that the reducer decodes only for the at most
``MAX_ERRORS_KEPT`` messages a report keeps.
"""

from __future__ import annotations

import os
import re
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

import numpy as np

from ..backend import get_backend
from ..topology.graph import Graph
from ..topology.bits import level_swap_array
from ..transform.swap_butterfly import ExchangeBoundary, SwapButterfly
from .collinear import (
    TrackOrder, optimal_track_count, track_assignment_arrays,
)
from .collinear_generic import max_congestion
from .geometry import LayerPair, Rect, THOMPSON_LAYERS
from .grid2d import (
    Grid2DDims, _doglegs_to_table, _grid2d_plan, _grid2d_wire_stream,
    _side_subgraphs,
)
from .grid_scheme import GridDims, grid_dims
from .grid_table import _cats_table, _grid_cats, build_grid_nodes
from .model import LayoutModel, multilayer_model, thompson_model
from .netcode import NetCodec, NetInterner, NodeCodec
from .nodetable import NodeTable
from .validate import (
    MAX_ERRORS_KEPT,
    ValidationReport,
    _BandIndex,
    _avoid_hits,
    _bulk,
    _canon_edge,
    _canon_net_rows,
    _node_bands,
    _realizes_fallback,
    _staged_nodes_placed,
    _terminal_points,
    _terminal_sweep,
    _track_overlap_sweep,
    _via_col_sweep,
    _via_seg_orientation,
    _via_seg_queries,
    _vt_columns,
    _vt_contiguity_terminals,
    _vt_layer_discipline,
    _vt_nodes_disjoint,
)
from .wiretable import WireTable

__all__ = [
    "ChunkStats",
    "ChunkedBuild",
    "ChunkedValidator",
    "chunked_collinear_table",
    "chunked_grid2d_table",
    "chunked_grid_table",
    "grid_chunk_estimate",
    "summarize_chunks",
    "validate_table_chunked",
    "wires_per_chunk",
]

# Conservative working-set estimate per wire in a chunk under assembly:
# ~3 segments x 5 int64 columns, the 6-int lexsort key, the net tuple,
# and sort/permute temporaries.  Deliberately generous so a declared
# budget upper-bounds the real transient footprint.
_WIRE_BYTES = 1024

_DEFAULT_CHUNK_WIRES = 65536


def wires_per_chunk(memory_budget_bytes: Optional[int]) -> int:
    """Target chunk size (in wires) for a working-set byte budget.

    ``None`` means "no budget" and yields a large default chunk.  Grid
    chunk sources honour the result down to their natural granularity
    floor (one block / grid column / grid row per chunk); the collinear
    source honours it exactly, down to single-wire chunks.

    The floor is pinned at **one wire per chunk**: any positive budget —
    even a single byte, far below the ~1 KiB per-wire working-set
    estimate — yields ``1`` rather than an error or a zero-size chunk,
    so arbitrarily tight budgets degrade to smaller chunks, never to a
    refusal.  Non-positive budgets are a ``ValueError`` (use ``None``
    for "unbudgeted", not ``0``).
    """
    if memory_budget_bytes is None:
        return _DEFAULT_CHUNK_WIRES
    if memory_budget_bytes <= 0:
        raise ValueError(
            f"memory_budget_bytes must be positive, got {memory_budget_bytes}"
        )
    return max(1, int(memory_budget_bytes) // _WIRE_BYTES)


@dataclass
class ChunkedBuild:
    """A layout whose wires exist only as a restartable chunk stream.

    ``chunks()`` returns a fresh iterator of :class:`WireTable` chunks in
    monolithic emission order each time it is called (builds are
    deterministic, so the stream is restartable).  ``nodes`` and
    ``model`` are materialised eagerly — they are O(network size), not
    O(wires) — which is exactly what the chunked validator needs.
    ``nodes`` is a :class:`NodeTable` for the grid and collinear sources
    (a read-only ``{key: Rect}`` mapping too) and a dict for grid2d.
    """

    name: str
    model: LayoutModel
    nodes: Mapping[Hashable, Rect]
    chunk_wires: int
    memory_budget_bytes: Optional[int]
    num_wires: Optional[int] = None
    _chunks: Callable[[], Iterator[WireTable]] = field(
        default=None, repr=False
    )
    # parallel-pipeline surface: a picklable ``recipe`` rebuilds this
    # ChunkedBuild in a worker process, ``descriptors`` lists every chunk
    # as a small picklable tuple in emission order, ``_materialize(desc,
    # views)`` turns one descriptor into its WireTable (``views`` lets
    # workers pass shared-memory copies of the ``_bulk()`` arrays), and
    # ``_bulk()`` returns the O(network) arrays every chunk needs, to be
    # published once via ``repro.backend.shm``.  Sources without this
    # surface (custom models, grid2d) still parallelise through the
    # generic buffered fallback.
    recipe: Optional[Tuple] = field(default=None, repr=False)
    descriptors: Optional[List[Tuple]] = field(default=None, repr=False)
    _materialize: Optional[Callable[..., WireTable]] = field(
        default=None, repr=False
    )
    _bulk: Optional[Callable[[], Dict[str, np.ndarray]]] = field(
        default=None, repr=False
    )
    # relative feed+validate work of each descriptor (aligned with
    # ``descriptors``); the parallel pipeline cuts its spans by it
    descriptor_weights: Optional[List[int]] = field(default=None, repr=False)
    _summary_cache: Optional[Dict[str, int]] = field(default=None, repr=False)
    # decoder of the ``net_code`` column the chunks carry (a picklable
    # :class:`~repro.layout.netcode.NetCodec`); ``None`` means the chunks
    # carry no codes and the validator interns their nets instead
    net_decoder: Optional[Callable[[int], Tuple]] = field(
        default=None, repr=False
    )

    def chunks(self) -> Iterator[WireTable]:
        if self.descriptors is not None and self._materialize is not None:
            def gen() -> Iterator[WireTable]:
                for d in self.descriptors:
                    t = self._materialize(d)
                    if t.num_wires:
                        yield t
            return gen()
        return self._chunks()

    def table(self) -> WireTable:
        """Materialise the monolithic table (for tests / small builds)."""
        return WireTable.concat(list(self.chunks()))

    def validate(
        self,
        graph: Optional[Graph] = None,
        check_nodes: bool = True,
        check_vias: bool = True,
        backend=None,
        num_buckets: int = 8,
        spill_dir: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> ValidationReport:
        if workers is not None:
            from .chunked_parallel import parallel_validate
            return parallel_validate(
                self, graph=graph, check_nodes=check_nodes,
                check_vias=check_vias, backend=backend,
                num_buckets=num_buckets, spill_dir=spill_dir, workers=workers,
            )
        return validate_table_chunked(
            self.chunks(), self.nodes, self.model, graph=graph,
            check_nodes=check_nodes, check_vias=check_vias, backend=backend,
            num_buckets=num_buckets, spill_dir=spill_dir,
            net_decoder=self.net_decoder,
        )

    def summary(self) -> Dict[str, int]:
        """``Layout.summary()`` dict; reuses the stats pass of an earlier
        ``validate_and_summarize`` call instead of re-enumerating chunks."""
        if self._summary_cache is not None:
            return dict(self._summary_cache)
        return summarize_chunks(self.chunks(), self.nodes, self.model)

    def validate_and_summarize(
        self,
        graph: Optional[Graph] = None,
        check_nodes: bool = True,
        check_vias: bool = True,
        backend=None,
        num_buckets: int = 8,
        spill_dir: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> Tuple[ValidationReport, Dict[str, int]]:
        """One pass over the chunk stream feeding both the validator and
        the stats accumulator."""
        if workers is not None:
            from .chunked_parallel import parallel_validate
            rep, summ = parallel_validate(
                self, graph=graph, check_nodes=check_nodes,
                check_vias=check_vias, backend=backend,
                num_buckets=num_buckets, spill_dir=spill_dir,
                workers=workers, want_stats=True,
            )
        else:
            v = ChunkedValidator(
                self.nodes, self.model, graph=graph, check_nodes=check_nodes,
                check_vias=check_vias, backend=backend,
                num_buckets=num_buckets, spill_dir=spill_dir,
                net_decoder=self.net_decoder,
            )
            st = ChunkStats()
            try:
                for t in self.chunks():
                    v.feed(t)
                    st.feed(t)
                rep = v.finalize()
            finally:
                v.close()
            summ = st.summary(self.nodes, self.model)
        self._summary_cache = dict(summ)
        return rep, summ


# ---------------------------------------------------------------------------
# chunk sources
# ---------------------------------------------------------------------------


def chunked_collinear_table(
    n: int,
    multiplicity: int = 1,
    node_side: Optional[int] = None,
    order: TrackOrder = "forward",
    layers: LayerPair = THOMPSON_LAYERS,
    model: Optional[LayoutModel] = None,
    memory_budget_bytes: Optional[int] = None,
) -> ChunkedBuild:
    """Stream :func:`~repro.layout.collinear.collinear_layout`'s table in
    wire-range chunks; concatenated chunks are byte-identical to the
    monolithic build."""
    if multiplicity < 1:
        raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
    degree = multiplicity * (n - 1)
    side = node_side if node_side is not None else max(degree, 1)
    if side < degree:
        raise ValueError(
            f"node side {side} cannot host {degree} top-edge terminals"
        )
    tracks_total = optimal_track_count(n) * multiplicity
    pitch = side + 1
    top = side
    m = multiplicity
    nw = (n * (n - 1) // 2) * m
    wpc = wires_per_chunk(memory_budget_bytes)
    vl = np.int64(layers.vertical)
    hl = np.int64(layers.horizontal)
    codec = NetCodec.collinear(n, m)

    _bulk_cache: Dict[str, np.ndarray] = {}

    def bulk() -> Dict[str, np.ndarray]:
        if not _bulk_cache:
            a0, b0, t0 = track_assignment_arrays(n, "forward")
            _bulk_cache.update(a0=a0, b0=b0, t0=t0)
        return dict(_bulk_cache)

    def materialize(desc, views=None) -> WireTable:
        arrs = views if views is not None else bulk()
        a0, b0, t0 = arrs["a0"], arrs["b0"], arrs["t0"]
        _, lo, hi = desc
        idx = np.arange(lo, hi, dtype=np.int64)
        li = idx // m
        copy = idx % m
        a, b = a0[li], b0[li]
        t = t0[li] * m + copy
        if order == "reversed":
            t = tracks_total - 1 - t
        y = top + 1 + t
        xa = a * pitch + (b - 1) * m + copy
        xb = b * pitch + a * m + copy
        cn = hi - lo
        rows = np.empty((cn, 3, 5), dtype=np.int64)
        topv = np.full(cn, top, dtype=np.int64)
        rows[:, 0] = np.stack(
            [xa, topv, xa, y, np.full(cn, vl)], axis=1
        )
        rows[:, 1] = np.stack(
            [xa, y, xb, y, np.full(cn, hl)], axis=1
        )
        rows[:, 2] = np.stack(
            [xb, topv, xb, y, np.full(cn, vl)], axis=1
        )
        flat = rows.reshape(cn * 3, 5)
        nets = list(zip(a.tolist(), b.tolist(), copy.tolist()))
        return WireTable.from_segment_arrays(
            nets,
            np.arange(cn + 1, dtype=np.int64) * 3,
            flat[:, 0], flat[:, 1], flat[:, 2], flat[:, 3], flat[:, 4],
            net_code=None if codec is None else codec.pack(a, b, copy),
            net_codec=codec,
        )

    descriptors = [
        ("rng", lo, min(lo + wpc, nw)) for lo in range(0, nw, wpc)
    ]
    descriptor_weights = [hi - lo for _k, lo, hi in descriptors]
    # a recipe must rebuild this exact source from primitives alone, so
    # custom models / layer pairs fall back to the buffered parallel path
    recipe = None
    if model is None and layers is THOMPSON_LAYERS:
        recipe = (
            "collinear", int(n), int(multiplicity),
            None if node_side is None else int(node_side),
            order, memory_budget_bytes,
        )
    a = np.arange(n, dtype=np.int64)
    sides = np.full(n, side, dtype=np.int64)
    nodes = NodeTable(a, a * pitch, np.zeros(n, dtype=np.int64), sides,
                      sides, codec=NodeCodec("int", (n,)))
    return ChunkedBuild(
        name=f"collinear-K{n}x{multiplicity}",
        model=model or thompson_model(),
        nodes=nodes,
        chunk_wires=wpc,
        memory_budget_bytes=memory_budget_bytes,
        num_wires=nw,
        recipe=recipe,
        descriptors=descriptors,
        _materialize=materialize,
        _bulk=bulk,
        net_decoder=codec,
        descriptor_weights=descriptor_weights,
    )


def _grid_phase_wires(
    sb: SwapButterfly, dims: GridDims, recirculating: bool
) -> Tuple[int, int, int]:
    """Wires one block emits in each phase: ``(intra, inter-col,
    inter-row)``.  A composite boundary's channel item stays in its block
    iff the level swap keeps the block id, which holds for the same
    number of local rows in every block, so block 0 stands for all."""
    R = dims.block.nrows
    rows = np.arange(R, dtype=np.int64)
    intra = R if recirculating else 0
    col = row = 0
    for b in sb.boundaries:
        if isinstance(b, ExchangeBoundary):
            intra += 2 * R  # straight + cross per row
            continue
        sig = level_swap_array(rows, dims.ks, b.level)
        away = int(np.count_nonzero(sig >> dims.ks[0]))
        intra += 2 * (R - away)
        if b.level == 2:
            row += 2 * away
        else:
            col += 2 * away
    return intra, col, row


# working-set weight of one inter-block wire (5-9 segments) relative to
# the ~3-segment wire _WIRE_BYTES is calibrated on
_INTER_WIRE_WEIGHT = 3


def _grid_grain(
    sb: SwapButterfly, dims: GridDims, recirculating: bool,
    memory_budget_bytes: Optional[int],
) -> Tuple[int, Tuple[int, int, int], int, int, int]:
    """Chunk granularity of the grid source for a byte budget:
    ``(wires_per_chunk, phase_wires_per_block, blocks_per_intra_chunk,
    grid_cols_per_chunk, grid_rows_per_chunk)``.

    Intra chunks count every wire of their blocks against the target.
    Inter chunks size by their own phase's wires (a grid column holds
    ``grid_rows`` blocks' inter-col wires, a grid row ``grid_cols``
    blocks' inter-row wires), each weighted ``_INTER_WIRE_WEIGHT`` times
    an average wire for its 5-9 segments.
    """
    per_block = _grid_phase_wires(sb, dims, recirculating)
    intra, col, row = per_block
    wpc = wires_per_chunk(memory_budget_bytes)
    bpc = max(1, wpc // max(intra + col + row, 1))
    w = _INTER_WIRE_WEIGHT
    cpc = max(1, wpc // max(w * col * dims.grid_rows, 1))
    rpc = max(1, wpc // max(w * row * dims.grid_cols, 1))
    return wpc, per_block, bpc, cpc, rpc


def grid_chunk_estimate(
    ks: Sequence[int],
    W: int = 4,
    L: int = 2,
    recirculating: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> Dict[str, int]:
    """Planning numbers for a chunked grid build without building wires:
    descriptor count, chunk-size target, total wires, and a peak
    working-set estimate (the chunk-size target or the largest one-group
    granularity floor, whichever dominates, times the per-wire
    working-set constant)."""
    dims = grid_dims(ks, W, L, recirculating=recirculating)
    sb = SwapButterfly.from_ks(dims.ks)
    wpc, (intra, col, row), bpc, cpc, rpc = _grid_grain(
        sb, dims, recirculating, memory_budget_bytes
    )
    gc, gr = dims.grid_cols, dims.grid_rows
    NB = gc * gr
    nchunks = -(-NB // bpc) + -(-gc // cpc) + -(-gr // rpc)
    return {
        "chunks": int(nchunks),
        "wires_per_chunk": int(wpc),
        "est_total_wires": int((intra + col + row) * NB),
        "est_peak_bytes": int(max(
            wpc, intra + col + row,
            _INTER_WIRE_WEIGHT * col * gr, _INTER_WIRE_WEIGHT * row * gc,
        ) * _WIRE_BYTES),
    }


def chunked_grid_table(
    ks: Sequence[int],
    W: int = 4,
    L: int = 2,
    track_order: TrackOrder = "forward",
    recirculating: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> ChunkedBuild:
    """Stream :func:`~repro.layout.grid_scheme.build_grid_layout`'s wire
    table phase by phase: intra wires in block-range chunks, level >= 3
    inter wires in grid-column-range chunks, level-2 inter wires in
    grid-row-range chunks — the exact monolithic emission order.

    The budget is honoured down to the phase granularity floor (one
    block / one grid column / one grid row per chunk): a closed group is
    the smallest unit whose rankings are self-contained.
    """
    dims = grid_dims(ks, W, L, recirculating=recirculating)
    sb = SwapButterfly.from_ks(dims.ks)
    model = thompson_model() if L == 2 else multilayer_model(L)
    gc, gr = dims.grid_cols, dims.grid_rows
    k2 = dims.ks[1]
    NB = gr * gc
    wpc, (intra, col, row), bpc, cpc, rpc = _grid_grain(
        sb, dims, recirculating, memory_budget_bytes
    )
    codec = NetCodec.grid(sb.rows, sb.stages)

    def sub(bids: np.ndarray, phase: str) -> WireTable:
        return _cats_table(_grid_cats(
            sb, dims, track_order, recirculating, bids, frozenset({phase}),
            codec=codec,
        ))

    _bulk_cache: Dict[str, np.ndarray] = {}

    def bulk() -> Dict[str, np.ndarray]:
        if not _bulk_cache:
            all_b = np.arange(NB, dtype=np.int64)
            _bulk_cache.update(
                all_b=all_b, bcol=all_b & (gc - 1), brow=all_b >> k2
            )
        return dict(_bulk_cache)

    def materialize(desc, views=None) -> WireTable:
        arrs = views if views is not None else bulk()
        kind, lo, hi = desc
        if kind == "intra":
            return sub(arrs["all_b"][lo:hi], "intra")
        if kind == "inter-col":
            bcol = arrs["bcol"]
            return sub(arrs["all_b"][(bcol >= lo) & (bcol < hi)], "inter-col")
        brow = arrs["brow"]
        return sub(arrs["all_b"][(brow >= lo) & (brow < hi)], "inter-row")

    descriptors = (
        [("intra", lo, min(lo + bpc, NB)) for lo in range(0, NB, bpc)]
        + [("inter-col", c0, c0 + cpc) for c0 in range(0, gc, cpc)]
        + [("inter-row", g0, g0 + rpc) for g0 in range(0, gr, rpc)]
    )
    # per-descriptor work: groups covered times the phase's wires per
    # group (inter wires belong to their source block's column / row),
    # inter wires weighted by their longer paths
    w = _INTER_WIRE_WEIGHT
    grain = {"intra": (NB, intra), "inter-col": (gc, w * gr * col),
             "inter-row": (gr, w * gc * row)}
    descriptor_weights = [
        (min(hi, grain[kind][0]) - lo) * grain[kind][1]
        for kind, lo, hi in descriptors
    ]
    return ChunkedBuild(
        name=f"grid-B{dims.n}-L{L}",
        model=model,
        nodes=build_grid_nodes(sb, dims),
        chunk_wires=wpc,
        memory_budget_bytes=memory_budget_bytes,
        recipe=(
            "grid", tuple(int(k) for k in ks), int(W), int(L),
            track_order, bool(recirculating), memory_budget_bytes,
        ),
        descriptors=descriptors,
        _materialize=materialize,
        _bulk=bulk,
        net_decoder=codec,
        descriptor_weights=descriptor_weights,
    )


def chunked_grid2d_table(
    rows: int,
    cols: int,
    row_graph: Callable[[int], Graph],
    col_graph: Callable[[int], Graph],
    W: Optional[int] = None,
    L: int = 2,
    name: str = "grid2d",
    split_channels: bool = False,
    memory_budget_bytes: Optional[int] = None,
) -> ChunkedBuild:
    """Stream :func:`~repro.layout.grid2d.build_grid2d_layout`'s table.

    The demand pass visits every channel graph once without retaining
    it; the emission pass regenerates them channel by channel, buffering
    dogleg rows up to the chunk size.  The graph callables must be pure
    (same graph for the same index on every call).
    """
    if rows < 1 or cols < 1:
        raise ValueError("need at least a 1x1 grid")
    if L < 2:
        raise ValueError(f"need at least 2 layers, got {L}")
    d_top = d_bot = d_right = d_left = 0
    per_edge = 0
    num_wires = 0
    for r in range(rows):
        g = row_graph(r)
        if set(g.nodes()) - set(range(cols)):
            raise ValueError(f"row graph {r} has nodes outside 0..{cols - 1}")
        s0, s1 = _side_subgraphs(g, split_channels)
        d_top = max(d_top, max_congestion(s0, range(cols)))
        d_bot = max(d_bot, max_congestion(s1, range(cols)))
        per_edge = max(per_edge, s0.max_degree(), s1.max_degree())
        num_wires += s0.num_edges + s1.num_edges
    for c in range(cols):
        g = col_graph(c)
        if set(g.nodes()) - set(range(rows)):
            raise ValueError(f"column graph {c} has nodes outside 0..{rows - 1}")
        s0, s1 = _side_subgraphs(g, split_channels)
        d_right = max(d_right, max_congestion(s0, range(rows)))
        d_left = max(d_left, max_congestion(s1, range(rows)))
        per_edge = max(per_edge, s0.max_degree(), s1.max_degree())
        num_wires += s0.num_edges + s1.num_edges

    plan = _grid2d_plan(
        rows, cols, W, L, split_channels,
        d_top, d_bot, d_right, d_left, per_edge,
    )
    dims = plan.dims
    side = dims.W
    wpc = wires_per_chunk(memory_budget_bytes)

    def chunks() -> Iterator[WireTable]:
        nets_buf: List[Tuple] = []
        paths_buf: List[Tuple[int, ...]] = []
        pairs_buf: List[Tuple[int, int]] = []
        stream = _grid2d_wire_stream(
            rows, cols,
            lambda r: _side_subgraphs(row_graph(r), split_channels),
            lambda c: _side_subgraphs(col_graph(c), split_channels),
            plan.g_top, plan.g_bot, plan.g_right, plan.g_left,
            side, dims.cell_w, dims.cell_h, plan.x_off, plan.y_off,
        )
        for _u, _v, wnet, p8, pair in stream:
            nets_buf.append(wnet)
            paths_buf.append(p8)
            pairs_buf.append((pair.vertical, pair.horizontal))
            if len(nets_buf) >= wpc:
                yield _doglegs_to_table(nets_buf, paths_buf, pairs_buf)
                nets_buf, paths_buf, pairs_buf = [], [], []
        if nets_buf:
            yield _doglegs_to_table(nets_buf, paths_buf, pairs_buf)

    nodes: Dict[Hashable, Rect] = {}
    for r in range(rows):
        for c in range(cols):
            nodes[(r, c)] = Rect(
                c * dims.cell_w + plan.x_off, r * dims.cell_h + plan.y_off,
                side, side,
            )
    return ChunkedBuild(
        name=f"{name}-{rows}x{cols}-L{L}",
        model=plan.model,
        nodes=nodes,
        chunk_wires=wpc,
        memory_budget_bytes=memory_budget_bytes,
        num_wires=num_wires,
        _chunks=chunks,
    )


# ---------------------------------------------------------------------------
# streaming stats
# ---------------------------------------------------------------------------


class ChunkStats:
    """Streaming :meth:`Layout.summary` over a chunk stream — running
    sums, maxima and a running bounding box reproduce the monolithic
    metrics exactly (all quantities are integer sums/maxes)."""

    def __init__(self) -> None:
        self.wires = 0
        self.segments = 0
        self.total_wire_length = 0
        self.max_wire_length = 0
        self.vias = 0
        self.box: Optional[Tuple[int, int, int, int]] = None

    def feed(self, t: WireTable) -> None:
        self.wires += int(t.num_wires)
        self.segments += int(t.num_segments)
        self.total_wire_length += int(t.total_wire_length())
        self.max_wire_length = max(
            self.max_wire_length, int(t.max_wire_length())
        )
        self.vias += int(t.num_vias())
        b = t.bounding_box()
        if b is not None:
            if self.box is None:
                self.box = b
            else:
                self.box = (
                    min(self.box[0], b[0]), min(self.box[1], b[1]),
                    max(self.box[2], b[2]), max(self.box[3], b[3]),
                )

    def summary(self, nodes, model: LayoutModel) -> Dict[str, int]:
        """The summary dict; ``nodes`` is a :class:`NodeTable` or a
        ``{key: Rect}`` mapping."""
        nodes = NodeTable.of(nodes)
        boxes = [b for b in (nodes.bounding_box(), self.box) if b is not None]
        if not boxes:
            raise ValueError("empty layout")
        width = max(b[2] for b in boxes) - min(b[0] for b in boxes)
        height = max(b[3] for b in boxes) - min(b[1] for b in boxes)
        return {
            "nodes": len(nodes),
            "wires": self.wires,
            "segments": self.segments,
            "width": width,
            "height": height,
            "area": width * height,
            "volume": width * height * model.num_layers,
            "layers": model.num_layers,
            "max_wire_length": self.max_wire_length,
            "total_wire_length": self.total_wire_length,
            "vias": self.vias,
        }


def summarize_chunks(
    chunks: Iterable[WireTable], nodes, model: LayoutModel
) -> Dict[str, int]:
    """Streaming :meth:`Layout.summary` over a chunk stream — identical
    dict to materialising the table, without holding more than a chunk."""
    st = ChunkStats()
    for t in chunks:
        st.feed(t)
    return st.summary(nodes, model)


# ---------------------------------------------------------------------------
# chunked validation
# ---------------------------------------------------------------------------


def _buckets_of(nb: int, *cols: np.ndarray) -> np.ndarray:
    """Deterministic hash partition of rows by their group-key columns.
    Rows with equal keys always land in the same bucket, so every
    comparison group of a grouped check is bucket-local."""
    h = np.zeros(len(cols[0]), dtype=np.uint64)
    mix = np.uint64(0x9E3779B97F4A7C15)
    for c in cols:
        h = (h + c.astype(np.uint64)) * mix
        h ^= h >> np.uint64(29)
    return (h % np.uint64(nb)).astype(np.int64)


# a spill file is written once this many staged bytes accumulate, or at
# the end of each fed chunk: few files (creating one costs more than
# filling it) while the staged rows stay a small, bounded buffer
_SPILL_FILE_BYTES = 8 << 20


class _SpillWriter:
    """Packs bucket-sorted rows of every spill store into shared files.

    Each file is one raw int64 ``.npy`` array — the concatenated
    ``(rows, ncols)`` matrices of the stores staged since the previous
    flush, one column per field and the net code as the last column —
    with no pickle and no Python objects.  A flush registers, for every
    touched bucket of every staged store, the part ``(path, lo, hi)``:
    the byte range of that bucket's rows.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._seq = 0
        self._staged: List[Tuple["_SpillStore", np.ndarray, np.ndarray]] = []
        self._nbytes = 0

    def stage(self, store: "_SpillStore", mat: np.ndarray, bounds) -> None:
        self._staged.append((store, mat, bounds))
        self._nbytes += mat.nbytes
        if self._nbytes >= _SPILL_FILE_BYTES:
            self.flush()

    def flush(self) -> None:
        if not self._staged:
            return
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, f"{self._seq:07d}.npy")
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(np.int64)),
                "fortran_order": False,
                "shape": (sum(m.size for _s, m, _b in self._staged),),
            })
            for store, mat, bounds in self._staged:
                pos = fh.tell()
                mat.tofile(fh)
                row = mat.itemsize * mat.shape[1]
                for k in range(store.nb):
                    i0, i1 = int(bounds[k]), int(bounds[k + 1])
                    if i0 < i1:
                        store.parts[k].append(
                            (path, pos + i0 * row, pos + i1 * row)
                        )
        self._staged = []
        self._nbytes = 0
        self._seq += 1


class _SpillStore:
    """Disk-spilled, hash-partitioned int64 rows for one grouped check.

    ``add`` sorts a chunk's rows by bucket (stably) and stages them with
    the validator's :class:`_SpillWriter`.  ``parts[k]`` lists bucket
    ``k``'s parts in append order, which is global arrival order within
    the bucket (chunks feed in emission order and the per-chunk split is
    stable).
    """

    def __init__(self, writer: _SpillWriter, num_buckets: int) -> None:
        self.writer = writer
        self.nb = num_buckets
        self.parts: List[List[Tuple]] = [[] for _ in range(num_buckets)]

    def add(self, bucket: np.ndarray, cols: List[np.ndarray]) -> None:
        if not len(bucket):
            return
        # a stable sort of small ints is a radix sort in numpy
        small = np.uint16 if self.nb <= 1 << 16 else np.int64
        order = np.argsort(bucket.astype(small), kind="stable")
        bounds = np.searchsorted(bucket[order], np.arange(self.nb + 1))
        mat = np.empty((len(bucket), len(cols)), dtype=np.int64)
        for j, c in enumerate(cols):
            mat[:, j] = c[order]
        self.writer.stage(self, mat, bounds)


def _load_parts(parts: List[Tuple], ncols: int) -> List[np.ndarray]:
    """Reload one bucket's parts in append order and return its
    ``ncols`` columns (net code last).

    A part is ``(path, lo, hi)`` or ``(path, lo, hi, offsets)``, where
    ``offsets`` is a per-column additive rebase vector — how the
    parallel reducer shifts a worker's span-local wire / via-position /
    terminal-sequence numbering into the global frame without rewriting
    the spilled bytes.  Only the part's byte range is read.
    """
    mats = []
    for part in parts:
        path, lo, hi = part[:3]
        mat = np.fromfile(
            path, dtype=np.int64, count=(hi - lo) // 8, offset=lo
        ).reshape(-1, ncols)
        if len(part) > 3:
            mat += np.asarray(part[3], dtype=np.int64)
        mats.append(mat)
    return list(np.ascontiguousarray(np.concatenate(mats).T))


class _NetRef:
    """A net inside a bucket sweep's message, by code: it formats as a
    placeholder that :func:`_decode_msgs` later replaces with the decoded
    net, so sweeps (possibly in pool workers) never need the decoder and
    only messages that reach the report are decoded."""

    __slots__ = ("code",)

    def __init__(self, code) -> None:
        self.code = int(code)

    def __format__(self, spec: str) -> str:
        return f"\x00{self.code}\x00"


_NET_REF = re.compile("\x00([0-9]+)\x00")


def _refs(codes: np.ndarray) -> Callable[[int], _NetRef]:
    return lambda r: _NetRef(codes[r])


def _decode_msgs(msgs: Iterable[str], decode) -> Iterator[str]:
    """Lazily swap every :class:`_NetRef` placeholder for ``str(net)`` —
    exactly what formatting the net tuple itself writes."""
    for m in msgs:
        yield _NET_REF.sub(lambda g: str(decode(int(g.group(1)))), m)


class _Tally:
    """Count + first-``MAX_ERRORS_KEPT`` messages of a streaming check
    (chunks arrive in table order, so the prefix is the monolithic one)."""

    __slots__ = ("count", "msgs")

    def __init__(self) -> None:
        self.count = 0
        self.msgs: List[str] = []

    def add(self, count: int, msgs: Iterable[str]) -> None:
        self.count += count
        for m in msgs:
            if len(self.msgs) >= MAX_ERRORS_KEPT:
                break
            self.msgs.append(m)


class _KeyedTally:
    """Keyed messages from per-bucket sweeps; ``merged`` re-sorts them
    into the monolithic emission order (keys are globally unique across
    buckets, and within a bucket they arrive pre-sorted)."""

    __slots__ = ("count", "keyed")

    def __init__(self) -> None:
        self.count = 0
        self.keyed: List[Tuple[Tuple, str]] = []

    def add(self, count: int, keyed: Iterable[Tuple[Tuple, str]]) -> None:
        self.count += count
        self.keyed.extend(keyed)

    def merged(self) -> List[str]:
        return [m for _k, m in sorted(self.keyed, key=lambda kv: kv[0])]


def _fast_template(graph: Graph) -> Optional[Dict]:
    """Accumulator template for the realizes-graph array fast path, or
    ``None`` when the graph has no staged arrays.  ``_fast_stub(k, kk)``
    builds the worker-side half (no ``want_rows``/``counts`` — workers
    only accumulate, the reducer compares)."""
    if graph._staged_arrays() is None:
        return None
    try:
        edges, counts = graph.to_edge_array()
    except ValueError:
        return None
    k = edges.shape[2] if edges.ndim == 3 else 0
    kk = k if k else 1
    tpl = _fast_stub(k, kk)
    tpl["want_rows"] = edges.reshape(len(counts), 2 * kk)
    tpl["counts"] = counts
    return tpl


def _fast_stub(k: int, kk: int) -> Dict:
    return {
        "k": k,
        "kk": kk,
        "want_rows": None,
        "counts": None,
        "uniq": np.zeros((0, 2 * kk), dtype=np.int64),
        "agg": np.zeros(0, dtype=np.int64),
        "pending": [],
        "pending_n": 0,
    }


def _fast_add(f: Dict, rows: np.ndarray, weights: np.ndarray) -> None:
    """Queue weighted edge rows into a fast-path accumulator, folding
    once the queue outgrows the aggregate (amortized, not per chunk)."""
    f["pending"].append((rows, weights))
    f["pending_n"] += len(rows)
    if f["pending_n"] >= max(len(f["uniq"]), _DEFAULT_CHUNK_WIRES):
        _fast_fold(f)


def _fast_fold(f: Dict) -> None:
    """Aggregate the queued rows into ``uniq``/``agg`` (associative, so
    the fold points never change the result)."""
    if not f["pending"]:
        return
    f["uniq"], f["agg"] = Graph._aggregate_rows(
        np.concatenate([f["uniq"]] + [r for r, _w in f["pending"]]),
        np.concatenate([f["agg"]] + [w for _r, w in f["pending"]]),
    )
    f["pending"] = []
    f["pending_n"] = 0


def _code_counter(codes: List[np.ndarray], decode) -> Counter:
    """The realizes-graph fallback's canonical-edge ``Counter``, rebuilt
    from the fed net codes.  Codes are decoded once each, in order of
    first occurrence, so the Counter's insertion order — which the
    fallback's message selection depends on — is the one a per-net
    ``+= 1`` over the whole table produces."""
    got: Counter = Counter()
    if not codes:
        return got
    uniq, first, counts = np.unique(
        np.concatenate(codes), return_index=True, return_counts=True
    )
    order = np.argsort(first)
    for c, n in zip(uniq[order].tolist(), counts[order].tolist()):
        net = decode(c)
        got[_canon_edge(net[0], net[1])] += n
    return got


class ChunkedValidator:
    """Streaming twin of :func:`~repro.layout.validate.validate_table`.

    Feed chunks in emission order, then ``finalize()``.  The report is
    byte-identical to the monolithic one on the concatenated table:
    same ``checks_run``, same ``num_errors``, same first-20 ``errors``
    in the same order.

    Peak memory is one chunk plus one spill bucket: grouped checks
    (track overlap, via conflicts, terminal collisions) spill their rows
    into ``num_buckets`` disk partitions keyed so comparison groups stay
    bucket-local, and re-run the monolithic sweep cores per bucket.
    Pick ``num_buckets >= total_rows_bytes / memory_budget_bytes`` to
    bound the reload size.

    Nets travel as int64 codes.  With a ``net_decoder`` every chunk must
    carry a ``net_code`` column that it decodes; without one the
    validator interns each chunk's nets itself.

    ``nodes`` is a :class:`NodeTable` or a ``{key: Rect}`` mapping,
    converted once; the node-side checks read its columns, and chunks
    whose codes carry their codec find their wires' endpoint nodes from
    the codes, exactly like :func:`validate_table`.
    """

    def __init__(
        self,
        nodes,
        model: LayoutModel,
        graph: Optional[Graph] = None,
        check_nodes: bool = True,
        check_vias: bool = True,
        backend=None,
        num_buckets: int = 8,
        spill_dir: Optional[str] = None,
        net_decoder: Optional[Callable[[int], Hashable]] = None,
    ) -> None:
        self.nodes = NodeTable.of(nodes)
        self.model = model
        self.graph = graph
        self.check_nodes = check_nodes
        self.check_vias = check_vias
        self.be = get_backend(backend)
        self.nb = max(1, int(num_buckets))
        self._interner = NetInterner() if net_decoder is None else None
        self.decode = net_decoder if net_decoder is not None else self._interner
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if spill_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-chunked-")
            spill_dir = self._tmpdir.name
        self._spill = _SpillWriter(spill_dir)
        self._stores: Dict[str, _SpillStore] = {}

        def store(name: str) -> _SpillStore:
            self._stores[name] = _SpillStore(self._spill, self.nb)
            return self._stores[name]

        # rows: layer, horiz, track, lo, hi, global wire, net code
        self._tracks = store("tracks")
        if check_vias:
            # rows: x, y, zlo, zhi, global wire, net code
            self._cols = store("viacol")
            # rows: layer, fix, lo, hi, global wire, net code (per
            # orientation)
            self._segs = {True: store("seg_h"), False: store("seg_v")}
            # rows: ql, qx, qy, global wire, global section pos, layer
            # ordinal, net code — one store per (orientation, column
            # section) so a reloaded bucket concatenates to the monolithic
            # query order ([all starts][all ends][all bends]) restricted
            # to the bucket
            self._qrys = {
                (is_h, sec): store(f"qry_{'h' if is_h else 'v'}_{sec}")
                for is_h in (True, False) for sec in (0, 1, 2)
            }
            # rows: x, y, global arrival seq, net code
            self._terms = store("terms")
        self._t_layer = _Tally()
        self._t_contig = _Tally()
        self._t_avoid = _Tally()
        self._wire_off = 0
        self._gw_count = 0
        self._bend_count = 0
        self._term_count = 0
        # node band indexes over the (fixed) nodes, built on the first
        # feed — a parallel reducer never feeds, so never builds them
        self._bi: Optional[Dict[bool, _BandIndex]] = None
        # realizes-graph: every fed net code, for an exact Counter built
        # only if the array fast path (kept while viable) fails
        self._codes: List[np.ndarray] = []
        self._fast: Optional[Dict] = (
            _fast_template(graph) if graph is not None else None
        )
        self._finalized = False

    # -- feeding ---------------------------------------------------------

    def _build_indexes(self) -> None:
        self._bi = {}
        if self.check_nodes and len(self.nodes):
            self._bi = _node_bands(self.nodes)

    def _net_codes(self, t: WireTable) -> np.ndarray:
        if self._interner is not None:
            return self._interner.codes(t.nets)
        if t.net_code is None:
            raise ValueError(
                "chunk carries no net_code for this validator's net_decoder"
            )
        return np.asarray(t.net_code, dtype=np.int64)

    def feed(self, t: WireTable) -> None:
        if self._finalized:
            raise RuntimeError("validator already finalized")
        if self._bi is None:
            self._build_indexes()
        codes = self._net_codes(t)
        tmp = ValidationReport(ok=True)
        _vt_layer_discipline(t, self.model, tmp)
        self._t_layer.add(tmp.num_errors, tmp.errors)
        tmp = ValidationReport(ok=True)
        _vt_contiguity_terminals(t, self.nodes, tmp)
        self._t_contig.add(tmp.num_errors, tmp.errors)

        ns = t.num_segments
        w_of = t.wire_of if ns else np.zeros(0, dtype=np.int64)
        if ns:
            horiz = t.is_horizontal.astype(np.int64)
            track = np.where(horiz == 1, t.y1, t.x1)
            lo = np.where(horiz == 1, t.x1, t.y1)
            hi = np.where(horiz == 1, t.x2, t.y2)
            self._tracks.add(
                _buckets_of(self.nb, t.layer, horiz, track),
                [t.layer, horiz, track, lo, hi, w_of + self._wire_off,
                 codes[w_of]],
            )
        if self.check_vias:
            self._feed_vias(t, w_of, codes)
        if self.check_nodes:
            self._feed_avoid(t)
        if self.graph is not None:
            self._codes.append(codes.copy())
            if self._fast is not None and t.num_wires:
                f = self._fast
                rows = _canon_net_rows(t, f["k"], f["kk"])
                if rows is None:
                    self._fast = None
                else:
                    _fast_add(f, rows, np.ones(len(rows), dtype=np.int64))
        self._spill.flush()
        self._wire_off += t.num_wires

    def _feed_vias(
        self, t: WireTable, w_of: np.ndarray, codes: np.ndarray
    ) -> None:
        paths = t.paths()
        n_gw = int((~paths.bad).sum())
        cx, cy, zlo, zhi, cw = _vt_columns(t)
        ncol = len(cx)
        n_bend = ncol - 2 * n_gw
        if ncol:
            colcodes = codes[cw]
            self._cols.add(
                _buckets_of(self.nb, cx, cy),
                [cx, cy, zlo, zhi, cw + self._wire_off, colcodes],
            )
            # section (starts / ends / bends) + global position within the
            # section reproduce the monolithic query order across chunks
            sec = np.empty(ncol, dtype=np.int64)
            pos = np.empty(ncol, dtype=np.int64)
            sec[:n_gw] = 0
            sec[n_gw:2 * n_gw] = 1
            sec[2 * n_gw:] = 2
            pos[:n_gw] = self._gw_count + np.arange(n_gw)
            pos[n_gw:2 * n_gw] = self._gw_count + np.arange(n_gw)
            pos[2 * n_gw:] = self._bend_count + np.arange(n_bend)
            ql, qx, qy, qw = _via_seg_queries(cx, cy, zlo, zhi, cw)
            reps = zhi - zlo + 1
            qc = np.repeat(np.arange(ncol, dtype=np.int64), reps)
            qj = ql - zlo[qc]
            qsec = sec[qc]
            qpos = pos[qc]
            qcode = colcodes[qc]
            gqw = qw + self._wire_off
            for s in (0, 1, 2):
                qm = np.flatnonzero(qsec == s)
                if not qm.size:
                    continue
                for is_h in (True, False):
                    self._qrys[(is_h, s)].add(
                        _buckets_of(
                            self.nb, ql[qm], (qy if is_h else qx)[qm]
                        ),
                        [
                            ql[qm], qx[qm], qy[qm], gqw[qm],
                            qpos[qm], qj[qm], qcode[qm],
                        ],
                    )
        horiz = t.is_horizontal
        for is_h in (True, False):
            si = np.flatnonzero(horiz if is_h else ~horiz)
            if not si.size:
                continue
            sw = w_of[si]
            self._segs[is_h].add(
                _buckets_of(
                    self.nb, t.layer[si], (t.y1 if is_h else t.x1)[si]
                ),
                [
                    t.layer[si],
                    (t.y1 if is_h else t.x1)[si],
                    (t.x1 if is_h else t.y1)[si],
                    (t.x2 if is_h else t.y2)[si],
                    sw + self._wire_off,
                    codes[sw],
                ],
            )
        # terminals of good wires, interleaved start/end in wire order —
        # the global seq reproduces the monolithic arrival tiebreak
        tw, tx, ty = _terminal_points(t)
        if tw.size:
            seq = self._term_count + np.arange(tw.size, dtype=np.int64)
            self._terms.add(
                _buckets_of(self.nb, tx, ty), [tx, ty, seq, codes[tw]],
            )
        self._gw_count += n_gw
        self._bend_count += n_bend
        self._term_count += 2 * n_gw

    def _feed_avoid(self, t: WireTable) -> None:
        if len(self.nodes) and t.num_segments:
            self._t_avoid.add(*_avoid_hits(t, self._bi))

    # -- finalization ----------------------------------------------------

    def finalize(self) -> ValidationReport:
        if self._finalized:
            raise RuntimeError("validator already finalized")
        self._finalized = True

        def run_jobs(payloads):
            return [_sweep_job(p, be=self.be) for p in payloads]

        return _reduce_finalize(self, run_jobs)

    def close(self) -> None:
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None


def _sweep_job(payload: Tuple, be=None) -> Tuple[int, List[Tuple[Tuple, str]]]:
    """Run one bucket sweep described by a picklable payload:
    ``(kind, is_h, parts_dict[, backend_name])``.  The job reloads its
    own spill parts, so a process-pool worker ships only paths; the
    serial path calls it inline with the validator's backend.  Returns
    ``(count, keyed_messages)``, nets in the messages as
    :class:`_NetRef` placeholders."""
    kind, is_h, parts = payload[0], payload[1], payload[2]
    if be is None:
        be = get_backend(payload[3] if len(payload) > 3 else None)
    if kind == "tracks":
        layer, horiz, track, lo, hi, gw, code = _load_parts(parts["rows"], 7)
        return _track_overlap_sweep(
            layer, horiz, track, lo, hi, gw, _refs(code), be=be
        )
    if kind == "viacol":
        cx, cy, zlo, zhi, gcw, code = _load_parts(parts["rows"], 6)
        return _via_col_sweep(cx, cy, zlo, zhi, gcw, _refs(code), be=be)
    if kind == "viaseg":
        s_lay, s_fix, s_lo, s_hi, s_gw, s_code = _load_parts(parts["seg"], 6)
        qcols: List[List[np.ndarray]] = []
        qsecs: List[np.ndarray] = []
        for sect in (0, 1, 2):
            pl = parts[f"q{sect}"]
            if not pl:
                continue
            qc = _load_parts(pl, 7)
            qcols.append(qc)
            qsecs.append(np.full(len(qc[0]), sect, dtype=np.int64))
        ql, qx, qy, gqw, qpos, qj, qcode = (
            np.concatenate([qc[i] for qc in qcols]) for i in range(7)
        )
        qsec = np.concatenate(qsecs)
        c, keyed = _via_seg_orientation(
            s_lay, s_fix, s_lo, s_hi, s_gw, _refs(s_code),
            ql, qx, qy, gqw, _refs(qcode),
            is_h, be=be,
        )
        return c, [
            ((int(qsec[qi]), int(qpos[qi]), int(qj[qi]), j), m)
            for (qi, j), m in keyed
        ]
    if kind != "terms":
        raise ValueError(f"unknown sweep kind {kind!r}")
    tx, ty, seq, code = _load_parts(parts["rows"], 4)
    return _terminal_sweep(tx, ty, seq, code, _refs(code))


def _sweep_payloads(v: "ChunkedValidator") -> List[Tuple]:
    """Every grouped-check bucket sweep of ``v`` as an independent job
    payload, in deterministic (check, orientation, bucket) order."""
    payloads: List[Tuple] = []
    for k in range(v.nb):
        if v._tracks.parts[k]:
            payloads.append(("tracks", None, {"rows": v._tracks.parts[k]}))
    if v.check_vias:
        for k in range(v.nb):
            if v._cols.parts[k]:
                payloads.append(("viacol", None, {"rows": v._cols.parts[k]}))
        for is_h in (True, False):
            for k in range(v.nb):
                seg_parts = v._segs[is_h].parts[k]
                if not seg_parts:
                    continue
                qp = {
                    f"q{s}": v._qrys[(is_h, s)].parts[k] for s in (0, 1, 2)
                }
                if not any(qp.values()):
                    continue
                payloads.append(("viaseg", is_h, {"seg": seg_parts, **qp}))
        for k in range(v.nb):
            if v._terms.parts[k]:
                payloads.append(("terms", None, {"rows": v._terms.parts[k]}))
    return payloads


def _reduce_finalize(v: "ChunkedValidator", run_jobs) -> ValidationReport:
    """Assemble the final report from ``v``'s accumulated state.

    ``run_jobs(payloads)`` executes the bucket-sweep payloads and returns
    their ``(count, keyed)`` results in payload order — inline for the
    serial path, on a process pool for the parallel one.  The assembly
    (check order, keyed-message re-sort, per-orientation and global
    caps) is identical either way, which is what keeps the parallel
    report byte-identical to the serial one.  Nets in the sweep messages
    are decoded here, and only for the messages the report keeps.
    """
    rep = ValidationReport(ok=True)
    rep.checks_run.append("layer-discipline")
    _bulk(rep, v._t_layer.count, iter(v._t_layer.msgs))
    rep.checks_run.append("contiguity-terminals")
    _bulk(rep, v._t_contig.count, iter(v._t_contig.msgs))
    payloads = _sweep_payloads(v)
    results = run_jobs(payloads)
    by_kind: Dict[Tuple, _KeyedTally] = defaultdict(_KeyedTally)
    for p, res in zip(payloads, results):
        by_kind[(p[0], p[1])].add(*res)

    def swept(kind: str) -> None:
        kt = by_kind[(kind, None)]
        _bulk(rep, kt.count, _decode_msgs(kt.merged(), v.decode))

    rep.checks_run.append("track-overlap")
    swept("tracks")
    if v.check_vias:
        rep.checks_run.append("via-conflicts")
        swept("viacol")
        seg_count = 0
        seg_msgs: List[str] = []
        for is_h in (True, False):
            kt = by_kind[("viaseg", is_h)]
            seg_count += kt.count
            seg_msgs.extend(kt.merged()[:MAX_ERRORS_KEPT])
        _bulk(rep, seg_count, _decode_msgs(seg_msgs, v.decode))
        rep.checks_run.append("terminals-distinct")
        swept("terms")
    if v.check_nodes:
        _vt_nodes_disjoint(v.nodes, rep, be=v.be)
        rep.checks_run.append("wires-avoid-nodes")
        _bulk(rep, v._t_avoid.count, iter(v._t_avoid.msgs))
    if v.graph is not None:
        rep.checks_run.append("realizes-graph")
        placed = v.nodes
        ok = False
        f = v._fast
        # zero wires fed: monolithic _canon_net_rows([]) returns None
        # and falls back — mirror that
        if v._wire_off == 0:
            f = None
        if f is not None:
            _fast_fold(f)
            want_rows = f["want_rows"]
            if (
                f["uniq"].shape == want_rows.shape
                and np.array_equal(f["uniq"], want_rows)
                and np.array_equal(f["agg"], f["counts"])
            ):
                ok = _staged_nodes_placed(
                    want_rows, f["k"], f["kk"], placed
                )
        if not ok:
            _realizes_fallback(
                _code_counter(v._codes, v.decode), placed, v.graph, rep
            )
    v.close()
    return rep


def validate_table_chunked(
    chunks: Iterable[WireTable],
    nodes,
    model: LayoutModel,
    graph: Optional[Graph] = None,
    check_nodes: bool = True,
    check_vias: bool = True,
    backend=None,
    num_buckets: int = 8,
    spill_dir: Optional[str] = None,
    workers: Optional[int] = None,
    net_decoder: Optional[Callable[[int], Hashable]] = None,
) -> ValidationReport:
    """Validate a chunk stream; byte-identical report to running
    :func:`~repro.layout.validate.validate_table` on the concatenation.

    ``workers`` (``None`` = serial) fans the feed and the bucket sweeps
    out over a process pool — a :class:`ChunkedBuild` with a recipe
    streams descriptors, anything else falls back to buffering the
    chunks — with a report still byte-identical to the serial one.
    ``net_decoder`` decodes the chunks' ``net_code`` column (serial path
    only); without it the chunks' nets are interned.
    """
    if workers is not None:
        from .chunked_parallel import parallel_validate
        return parallel_validate(
            chunks, nodes=nodes, model=model, graph=graph,
            check_nodes=check_nodes, check_vias=check_vias, backend=backend,
            num_buckets=num_buckets, spill_dir=spill_dir, workers=workers,
        )
    v = ChunkedValidator(
        nodes, model, graph=graph, check_nodes=check_nodes,
        check_vias=check_vias, backend=backend, num_buckets=num_buckets,
        spill_dir=spill_dir, net_decoder=net_decoder,
    )
    try:
        for t in chunks:
            v.feed(t)
        return v.finalize()
    finally:
        v.close()
