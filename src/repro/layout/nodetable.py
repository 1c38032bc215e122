"""Columnar node footprints: a layout's node rectangles as int64 arrays.

A :class:`NodeTable` holds every node of a layout as int64 columns
(``x, y, w, h``, one row per node in insertion order) plus one int64 key
code per row, in place of a ``{key: Rect}`` dict.  The grid builder
emits one directly with a few array ops; a dict from the object-level
builders (collinear, grid2d, ccc, ...) is converted once, by
:meth:`NodeTable.of`, when a validator or a summary needs the arrays.

Keys are stored as codes.  With a :class:`~repro.layout.netcode.NodeCodec`
a code *is* the packed key (grid ``(row, stage)``, collinear ``a``):
that is what lets the validator find a wire's endpoint nodes straight
from its net code (:meth:`NetCodec.endpoints` plus :meth:`rows_of`),
with no per-wire tuple or dict lookup.  Without a codec the table keeps
the key objects and a row's code is its index.

The table is also a read-only ``Mapping`` from key to :class:`Rect`, in
insertion order, so code that reads a node dict reads a table the same
way (``len``, iteration, ``in``, ``[key]``, ``items()``, ``==`` against a
dict).  Those per-node reads build objects; they serve messages, tests
and drawing, not the hot paths.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Rect
from .netcode import NodeCodec

__all__ = ["NodeTable"]


class NodeTable(Mapping):
    """Node footprints ``[x, x + w] x [y, y + h]`` as int64 columns.

    ``code[i]`` is row ``i``'s key code: a :attr:`codec`-packed key, or
    ``i`` itself when the table keeps its key objects (``keys``).
    Give exactly one of ``codec`` and ``keys``.
    """

    __slots__ = ("code", "x", "y", "w", "h", "codec", "_keys", "_index",
                 "_sorted")

    def __init__(
        self,
        code: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        h: np.ndarray,
        codec: Optional[NodeCodec] = None,
        keys: Optional[Sequence[Hashable]] = None,
    ) -> None:
        if (codec is None) == (keys is None):
            raise ValueError("give exactly one of codec and keys")
        cols = [np.ascontiguousarray(a, dtype=np.int64).reshape(-1)
                for a in (code, x, y, w, h)]
        if len({len(c) for c in cols}) != 1:
            raise ValueError("node columns differ in length")
        if keys is not None and len(keys) != len(cols[0]):
            raise ValueError("keys do not match the node columns")
        self.code, self.x, self.y, self.w, self.h = cols
        if np.any((self.w <= 0) | (self.h <= 0)):
            raise ValueError("rect must have positive size")
        self.codec = codec
        self._keys = None if keys is None else list(keys)
        self._index: Optional[Dict[Hashable, int]] = None
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def of(cls, nodes) -> "NodeTable":
        """``nodes`` as a table: a table passes through, a ``{key: Rect}``
        mapping is converted (keys kept, insertion order kept)."""
        if isinstance(nodes, NodeTable):
            return nodes
        keys = list(nodes)
        xywh = np.array(
            [(r.x, r.y, r.w, r.h) for r in nodes.values()], dtype=np.int64
        ).reshape(-1, 4)
        return cls(np.arange(len(keys), dtype=np.int64), xywh[:, 0],
                   xywh[:, 1], xywh[:, 2], xywh[:, 3], keys=keys)

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------
    @property
    def x2(self) -> np.ndarray:
        return self.x + self.w

    @property
    def y2(self) -> np.ndarray:
        return self.y + self.h

    def bounding_box(self) -> Optional[Tuple[int, int, int, int]]:
        """``(x_min, y_min, x2_max, y2_max)`` over the footprints, or
        ``None`` for an empty table."""
        if not len(self.code):
            return None
        return (int(self.x.min()), int(self.y.min()),
                int(self.x2.max()), int(self.y2.max()))

    def rows_of(self, codes: np.ndarray) -> np.ndarray:
        """Row of each key code, ``-1`` where no node has that code."""
        codes = np.asarray(codes, dtype=np.int64)
        if not len(self.code):
            return np.full(codes.shape, -1, dtype=np.int64)
        if self._sorted is None:
            order = np.argsort(self.code, kind="stable")
            self._sorted = (self.code[order], order)
        sc, order = self._sorted
        pos = np.minimum(np.searchsorted(sc, codes), len(sc) - 1)
        return np.where(sc[pos] == codes, order[pos], -1)

    # ------------------------------------------------------------------
    # keys and objects
    # ------------------------------------------------------------------
    def key_list(self) -> List[Hashable]:
        """Every key, in row order."""
        if self._keys is not None:
            return list(self._keys)
        return self.codec.keys(self.code)

    def key_index(self) -> Dict[Hashable, int]:
        """``key -> row`` (built on first use, then kept)."""
        if self._index is None:
            self._index = {k: i for i, k in enumerate(self.key_list())}
        return self._index

    def rect(self, i: int) -> Rect:
        return Rect(int(self.x[i]), int(self.y[i]), int(self.w[i]),
                    int(self.h[i]))

    def to_dict(self) -> Dict[Hashable, Rect]:
        """A fresh ``{key: Rect}`` dict in row order."""
        return dict(zip(self.key_list(), map(
            Rect, self.x.tolist(), self.y.tolist(), self.w.tolist(),
            self.h.tolist(),
        )))

    def __len__(self) -> int:
        return len(self.code)

    def __iter__(self):
        return iter(self.key_list())

    def __contains__(self, key: object) -> bool:
        return key in self.key_index()

    def __getitem__(self, key: Hashable) -> Rect:
        i = self.key_index().get(key)
        if i is None:
            raise KeyError(key)
        return self.rect(i)

    def __repr__(self) -> str:
        return f"NodeTable({len(self)} nodes, codec={self.codec!r})"
