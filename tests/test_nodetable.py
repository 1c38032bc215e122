"""Columnar node footprints (:class:`repro.layout.NodeTable`).

The grid builder emits its nodes as a table keyed by packed
``(row, stage)`` codes, and the monolithic grid table carries the
builder's net codes, so the validator finds every wire's endpoint nodes
by code lookup.  These tests pin that path to the object-level oracle
and to the dict path: the same ``ok`` / ``errors`` / ``num_errors`` on
node mutations for dict input, node-table input, the chunked validator
and the parallel one; mutating ``Layout.nodes`` after a native build is
honoured; and ``summary()`` equals the oracle builders' output.
"""

import numpy as np
import pytest

from repro.layout import (
    NodeTable,
    Rect,
    build_grid2d_layout,
    build_grid_layout,
    chunked_collinear_table,
    collinear_layout,
    parallel_validate,
    validate_layout,
    validate_table,
    validate_table_chunked,
)
from repro.layout.grid_table import build_grid_nodes
from repro.layout.model import Layout
from repro.layout.netcode import NetCodec, NodeCodec
from repro.topology.complete import complete_multigraph
from tests.oracles.layout import (
    build_grid2d_layout_legacy,
    build_grid_layout_legacy,
    collinear_layout_legacy,
)
from tests.oracles.validate import validate_layout_legacy


def verdict(rep):
    return rep.ok, rep.num_errors, list(rep.errors)


# ---------------------------------------------------------------------------
# the table itself
# ---------------------------------------------------------------------------


def test_dict_round_trip_and_mapping_reads():
    d = {(0, 1): Rect(0, 0, 2, 3), 5: Rect(4, 1, 1, 1), "z": Rect(-2, 7, 3, 3)}
    nt = NodeTable.of(d)
    assert NodeTable.of(nt) is nt
    assert nt == d and list(nt) == list(d) and len(nt) == 3
    assert nt.to_dict() == d and list(nt.to_dict()) == list(d)
    assert nt[5] == Rect(4, 1, 1, 1) and "z" in nt and (9, 9) not in nt
    assert nt.get((9, 9)) is None
    with pytest.raises(KeyError):
        nt[(9, 9)]
    assert nt.bounding_box() == (-2, 0, 5, 10)
    assert nt.rows_of(np.array([2, 0, 7, -1])).tolist() == [2, 0, -1, -1]
    assert NodeTable.of({}).bounding_box() is None
    assert NodeTable.of({}).rows_of(np.array([0])).tolist() == [-1]


def test_rejects_bad_tables():
    z = np.zeros(2, dtype=np.int64)
    one = np.ones(2, dtype=np.int64)
    with pytest.raises(ValueError, match="positive size"):
        NodeTable(np.arange(2), z, z, one, z, keys=["a", "b"])
    with pytest.raises(ValueError, match="exactly one"):
        NodeTable(np.arange(2), z, z, one, one)
    with pytest.raises(ValueError, match="length"):
        NodeTable(np.arange(3), z, z, one, one, keys=["a", "b", "c"])


def test_codecs_agree_on_node_keys():
    net = NetCodec.grid(16, 4)
    assert net.node_codec == NodeCodec("grid", (16, 4))
    nets = [((3, 1), (9, 2), "sc"), ((15, 3), (0, 0), "feedback")]
    codes = net.pack([3, 15], [1, 3], [9, 0], [2, 0], [0, 4])
    assert net.endpoint_keys(codes).tolist() == [
        list(n[0] + n[1]) for n in nets]
    a, b = net.endpoints(codes)
    nc = net.node_codec
    assert nc.keys(a) == [n[0] for n in nets]
    assert nc.keys(b) == [n[1] for n in nets]
    keys = np.array([[3, 1], [16, 0], [2, -1]])
    assert nc.pack_keys(keys).tolist() == [13, -1, -1]
    col = NetCodec.collinear(5, 2)
    assert col.node_codec == NodeCodec("int", (5,))
    assert col.node_codec.arity == 0
    ends = col.endpoints(col.pack([1], [4], [1]))
    assert [x.tolist() for x in ends] == [[1], [4]]


@pytest.mark.parametrize("ks,rec", [((1, 1, 1), False), ((2, 2, 1), True),
                                    ((3, 2, 2), False), ((2, 1, 1, 1), False)])
def test_grid_nodes_match_oracle_in_order(ks, rec):
    res = build_grid_layout(ks, recirculating=rec)
    nt = res.layout.node_table()
    assert nt.codec == NodeCodec("grid", (res.sb.rows, res.sb.stages))
    leg = build_grid_layout_legacy(ks, recirculating=rec).layout.nodes
    assert list(nt.items()) == list(leg.items())
    assert nt == build_grid_nodes(res.sb, res.dims)


def test_monolithic_grid_table_carries_decodable_codes():
    res = build_grid_layout((2, 2, 1), recirculating=True)
    t = res.layout.wire_table()
    assert t.net_codec == NetCodec.grid(res.sb.rows, res.sb.stages)
    assert [t.net_codec(c) for c in t.net_code.tolist()] == t.nets


# ---------------------------------------------------------------------------
# node mutations: every validator path against the oracle
# ---------------------------------------------------------------------------

GRID_KS = (2, 1, 1)


def _mutated_nodes(nt: NodeTable, which: str):
    """Arrays of ``nt`` after one node mutation, as ``(code, x, y, w,
    h)``; row 9 and row 20 are interior nodes of the (2, 1, 1) grid."""
    code, x, y, w, h = (a.copy() for a in (nt.code, nt.x, nt.y, nt.w, nt.h))
    if which == "overlap":
        x[9], y[9] = x[20] + 1, y[20] + 1
    elif which == "interior":
        # grow a node over its neighbours' wiring channel
        w[9] += 12
        h[9] += 12
    elif which == "terminal-off":
        x[20] += 2
    elif which == "no-node":
        keep = np.arange(len(code)) != 20
        code, x, y, w, h = (a[keep] for a in (code, x, y, w, h))
    return code, x, y, w, h


MUTATIONS = ["none", "overlap", "interior", "terminal-off", "no-node"]

#: a message each mutation must produce
EXPECT = {"overlap": ") overlap", "interior": "crosses a node interior",
          "terminal-off": "not on boundary", "no-node": "not placed"}


@pytest.mark.parametrize("which", MUTATIONS)
def test_node_mutations_identical_on_every_path(which):
    res = build_grid_layout(GRID_KS)
    lay, graph = res.layout, res.graph
    t = lay.wire_table()
    nt = NodeTable(*_mutated_nodes(lay.node_table(), which),
                   codec=lay.node_table().codec)
    as_dict = nt.to_dict()
    oracle = validate_layout_legacy(
        Layout(lay.model, nodes=dict(as_dict), wires=t.to_wires()), graph
    )
    want = verdict(oracle)
    assert want[0] == (which == "none")
    assert which == "none" or any(EXPECT[which] in e for e in want[2])
    assert verdict(validate_table(t, nt, lay.model, graph=graph)) == want
    assert verdict(validate_table(t, as_dict, lay.model, graph=graph)) == want
    # the same nets without codes take the key-index path
    plain = type(t)(nets=list(t.nets), indptr=t.indptr, x1=t.x1, y1=t.y1,
                    x2=t.x2, y2=t.y2, layer=t.layer)
    assert verdict(validate_table(plain, nt, lay.model, graph=graph)) == want
    chunks = [t.slice_wires(lo, lo + 7) for lo in range(0, t.num_wires, 7)]
    for nodes in (nt, as_dict):
        got = validate_table_chunked(chunks, nodes, lay.model, graph=graph,
                                     num_buckets=3, net_decoder=t.net_codec)
        assert verdict(got) == want
        for workers in (1, 2):
            got = parallel_validate(chunks, nodes, lay.model, graph=graph,
                                    workers=workers)
            assert verdict(got) == want


def test_layout_nodes_mutation_is_honoured():
    res = build_grid_layout(GRID_KS)
    lay = res.layout
    assert validate_layout(lay, res.graph).ok
    native = lay.node_table()
    k = next(iter(native))
    r = lay.nodes[k]  # materialises the dict; the table is dropped
    assert lay.node_table() is not native
    lay.nodes[k] = Rect(r.x + 2, r.y, r.w, r.h)
    rep = validate_layout(lay, res.graph)
    assert not rep.ok
    assert any(f"node {k!r}" in e for e in rep.errors)
    assert lay.node_table()[k] == Rect(r.x + 2, r.y, r.w, r.h)
    del lay.nodes[k]
    assert lay.summary()["nodes"] == len(native) - 1
    assert any("not placed" in e
               for e in validate_layout(lay, res.graph).errors)


def test_layout_accepts_node_table_assignment():
    res = build_grid_layout(GRID_KS)
    lay = Layout(res.layout.model, nodes=res.layout.nodes,
                 table=res.layout.wire_table())
    assert isinstance(lay.nodes, dict)
    nt = NodeTable.of(lay.nodes)
    lay.nodes = nt
    assert lay.node_table() is nt and lay.num_nodes() == len(nt)
    assert validate_layout(lay, res.graph).ok


# ---------------------------------------------------------------------------
# summary() against the oracle builders
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ks,L,rec", [((1, 1, 1), 2, False),
                                      ((2, 2, 1), 3, True),
                                      ((3, 2, 2), 4, False)])
def test_grid_summary_matches_oracle(ks, L, rec):
    got = build_grid_layout(ks, L=L, recirculating=rec).layout.summary()
    leg = build_grid_layout_legacy(ks, L=L, recirculating=rec)
    want = leg.layout.summary()
    assert got == want


@pytest.mark.parametrize("n,mult", [(2, 1), (5, 2), (8, 1)])
def test_collinear_summary_matches_oracle(n, mult):
    got = collinear_layout(n, multiplicity=mult).layout.summary()
    leg = collinear_layout_legacy(n, multiplicity=mult)
    assert got == leg.layout.summary()
    build = chunked_collinear_table(n, mult, memory_budget_bytes=2048)
    assert build.summary() == got
    assert build.nodes == collinear_layout(n, multiplicity=mult).layout.nodes


def test_grid2d_summary_matches_oracle():
    rows_g = lambda _i: complete_multigraph(3, 1)  # noqa: E731
    cols_g = lambda _i: complete_multigraph(2, 2)  # noqa: E731
    got = build_grid2d_layout(2, 3, rows_g, cols_g).layout.summary()
    want = build_grid2d_layout_legacy(2, 3, rows_g, cols_g).layout.summary()
    assert got == want


def test_summary_of_object_wires_matches_table():
    res = build_grid_layout((2, 1, 1))
    want = res.layout.summary()
    objs = Layout(res.layout.model, nodes=res.layout.nodes,
                  wires=res.layout.wire_table().to_wires())
    assert objs.summary() == want
    with pytest.raises(ValueError, match="empty layout"):
        Layout(res.layout.model).bounding_box()
