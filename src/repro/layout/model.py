"""Layout container and layout-model rule descriptors.

A :class:`Layout` is a concrete embedding: node rectangles plus routed
wires on numbered layers, each held as objects or as columns.  A
:class:`LayoutModel` states which rules the embedding claims to satisfy
(how many wiring layers, whether nodes must sit on the first layer,
node-size range) so the validator knows what to check.
``thompson_model()`` and ``multilayer_model(L)`` construct the two rule
sets used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from .geometry import Rect, Wire
from .nodetable import NodeTable

__all__ = ["LayoutModel", "Layout", "thompson_model", "multilayer_model"]


@dataclass(frozen=True)
class LayoutModel:
    """Rules a layout claims to satisfy.

    * ``num_layers`` — wiring layers ``L`` available.
    * ``v_layers`` / ``h_layers`` — which layers may carry vertical /
      horizontal segments.  Section 4.2: for even ``L``, odd layers carry
      verticals and even layers horizontals; for odd ``L`` the paper
      partitions horizontal tracks onto layers ``1, 3, ..., L`` and
      vertical tracks onto layers ``2, 4, ..., L-1``.
    * ``active_layers`` — layers that may contain nodes (the multilayer
      2-D grid model has exactly one).
    """

    name: str
    num_layers: int
    v_layers: Tuple[int, ...]
    h_layers: Tuple[int, ...]
    active_layers: int = 1

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"need at least one layer, got {self.num_layers}")
        if self.active_layers < 1:
            raise ValueError("need at least one active layer")
        if set(self.v_layers) & set(self.h_layers):
            raise ValueError("a layer cannot carry both orientations")
        for layer in (*self.v_layers, *self.h_layers):
            if not 1 <= layer <= self.num_layers:
                raise ValueError(f"layer {layer} outside [1, {self.num_layers}]")


def thompson_model() -> LayoutModel:
    """The Thompson model: two wiring layers (layer 1 vertical, layer 2
    horizontal), one active layer."""
    return LayoutModel(name="thompson", num_layers=2, v_layers=(1,), h_layers=(2,))


def multilayer_model(L: int) -> LayoutModel:
    """The multilayer 2-D grid model with ``L`` wiring layers.

    Even ``L``: verticals on odd layers, horizontals on even layers
    (``L/2`` groups of layer pairs).  Odd ``L``: horizontals on layers
    ``1, 3, ..., L`` and verticals on ``2, 4, ..., L-1`` (Section 4.2's
    odd-``L`` rule).
    """
    if L < 2:
        raise ValueError(f"multilayer model needs L >= 2, got {L}")
    if L % 2 == 0:
        v = tuple(range(1, L + 1, 2))
        h = tuple(range(2, L + 1, 2))
    else:
        h = tuple(range(1, L + 1, 2))
        v = tuple(range(2, L, 2))
    return LayoutModel(name=f"multilayer-L{L}", num_layers=L, v_layers=v, h_layers=h)


class Layout:
    """A concrete layout: placed nodes plus routed wires.

    Node ids are the graph's node ids (ints or tuples).  The layout does
    not interpret them; validators compare against a target graph.

    Both halves have an object form and a columnar form, and a layout
    holds whichever its builder emitted:

    * wires — a list of :class:`Wire` objects or a
      :class:`~repro.layout.wiretable.WireTable` (what the vectorized
      builders emit);
    * nodes — a ``{key: Rect}`` dict or a
      :class:`~repro.layout.nodetable.NodeTable` (what the grid builder
      emits).

    The forms are interchangeable.  Reading ``.wires`` / ``.nodes`` on a
    columnar layout materialises the objects once and drops the column
    form, since the returned list or dict may be mutated in place; from
    then on the objects are authoritative.  ``wire_table()`` /
    ``node_table()`` hand the columns to vectorized consumers — the
    native ones while untouched, else a fresh conversion of the
    (possibly mutated) objects.
    """

    def __init__(
        self,
        model: LayoutModel,
        name: str = "",
        nodes=None,
        wires: List[Wire] = None,
        table=None,
    ) -> None:
        if wires is not None and table is not None:
            raise ValueError("pass either wires or table, not both")
        self.model = model
        self.name = name
        self.nodes = {} if nodes is None else nodes
        self._wires: List[Wire] = (
            wires if wires is not None else ([] if table is None else None)
        )
        self._table = table

    @property
    def wires(self) -> List[Wire]:
        if self._wires is None:
            self._wires = self._table.to_wires()
            # The list may be mutated by callers; the table would go stale.
            self._table = None
        return self._wires

    @wires.setter
    def wires(self, value: List[Wire]) -> None:
        self._wires = value
        self._table = None

    @property
    def nodes(self) -> Dict[Hashable, Rect]:
        """The nodes as a ``{key: Rect}`` dict.  Assigning a dict or a
        :class:`NodeTable` replaces them; a table is kept as is."""
        if self._nodes is None:
            self._nodes = self._node_table.to_dict()
            # The dict may be mutated by callers; the table would go stale.
            self._node_table = None
        return self._nodes

    @nodes.setter
    def nodes(self, value) -> None:
        if isinstance(value, NodeTable):
            self._nodes, self._node_table = None, value
        else:
            self._nodes, self._node_table = value, None

    @property
    def has_native_table(self) -> bool:
        """True while the wires still live only in columnar form."""
        return self._table is not None

    def wire_table(self):
        """The layout's wires as a :class:`WireTable` — the native table
        when one is backing this layout, else a fresh conversion of the
        (possibly mutated) object wires."""
        if self._table is not None:
            return self._table
        from .wiretable import WireTable

        return WireTable.from_wires(self.wires)

    def node_table(self) -> NodeTable:
        """The layout's nodes as a :class:`NodeTable` — the native table
        while ``.nodes`` is untouched, else a fresh conversion of the
        (possibly mutated) dict."""
        if self._node_table is not None:
            return self._node_table
        return NodeTable.of(self._nodes)

    def num_nodes(self) -> int:
        if self._node_table is not None:
            return len(self._node_table)
        return len(self._nodes)

    def add_node(self, node: Hashable, rect: Rect) -> None:
        if node in self.nodes:
            raise ValueError(f"node {node!r} already placed")
        self.nodes[node] = rect

    def add_wire(self, wire: Wire) -> None:
        self.wires.append(wire)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def bounding_box(self) -> Tuple[int, int, int, int]:
        """``(x_min, y_min, x_max, y_max)`` over all nodes and wires —
        the paper's smallest upright encompassing rectangle."""
        boxes = [self.node_table().bounding_box()]
        if self._table is not None:
            boxes.append(self._table.bounding_box())
        else:
            segs = [s for w in self.wires for s in w.segments]
            if segs:
                # segments are normalized: x1 <= x2 and y1 <= y2
                boxes.append((
                    min(s.x1 for s in segs), min(s.y1 for s in segs),
                    max(s.x2 for s in segs), max(s.y2 for s in segs),
                ))
        boxes = [b for b in boxes if b is not None]
        if not boxes:
            raise ValueError("empty layout")
        return (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))

    @property
    def width(self) -> int:
        x1, _, x2, _ = self.bounding_box()
        return x2 - x1

    @property
    def height(self) -> int:
        _, y1, _, y2 = self.bounding_box()
        return y2 - y1

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def volume(self) -> int:
        """Area times number of layers (Section 4.1)."""
        return self.area * self.model.num_layers

    def max_wire_length(self) -> int:
        if self._table is not None:
            return self._table.max_wire_length()
        return max((w.length for w in self.wires), default=0)

    def total_wire_length(self) -> int:
        if self._table is not None:
            return self._table.total_wire_length()
        return sum(w.length for w in self.wires)

    def num_vias(self) -> int:
        if self._table is not None:
            return self._table.num_vias()
        return sum(len(w.vias()) for w in self.wires)

    def layers_used(self) -> List[int]:
        if self._table is not None:
            return self._table.layers_used()
        return sorted({s.layer for w in self.wires for s in w.segments})

    def segment_count(self) -> int:
        if self._table is not None:
            return self._table.num_segments
        return sum(len(w.segments) for w in self.wires)

    def num_wires(self) -> int:
        if self._table is not None:
            return self._table.num_wires
        return len(self.wires)

    def summary(self) -> Dict[str, int]:
        """One-stop metrics dict used by benches and EXPERIMENTS.md."""
        x1, y1, x2, y2 = self.bounding_box()
        width, height = x2 - x1, y2 - y1
        area = width * height
        return {
            "nodes": self.num_nodes(),
            "wires": self.num_wires(),
            "segments": self.segment_count(),
            "width": width,
            "height": height,
            "area": area,
            "volume": area * self.model.num_layers,
            "layers": self.model.num_layers,
            "max_wire_length": self.max_wire_length(),
            "total_wire_length": self.total_wire_length(),
            "vias": self.num_vias(),
        }
