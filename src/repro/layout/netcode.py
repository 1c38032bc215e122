"""Integer net codes: one int64 per wire in place of its net tuple.

The chunked validator never needs a net's *structure*, only its
identity (``terminals-distinct``, the realizes-graph tally) and, for the
at most ``MAX_ERRORS_KEPT`` messages a report keeps, its exact ``repr``.
Carrying an int64 code column through the spill files instead of Python
tuples keeps those files plain ``.npy`` matrices.

Two ways to get codes:

* :class:`NetCodec` — an injective mixed-radix packing of a builder's
  structured nets (grid scheme ``((row, stage), (row, stage), kind)``,
  collinear ``(a, b, copy)``).  Builders pack whole arrays at once; the
  codec is a small picklable object whose ``__call__`` decodes one code
  back to the exact net tuple.  :meth:`NetCodec.grid` /
  :meth:`NetCodec.collinear` return ``None`` when the radix product does
  not fit in int64, and callers then fall back to interning.
* :class:`NetInterner` — assigns codes in first-seen order to arbitrary
  hashable nets (grid2d sources, plain chunk iterables).

A :class:`NodeCodec` packs the node keys of the same builders
(grid ``(row, stage)``, collinear ``a``) the same way.  A net code's
endpoint fields are node keys, so :meth:`NetCodec.endpoints` turns a
code column into the two endpoint node-code columns without building a
tuple: that is how the validator finds each wire's endpoint nodes in a
:class:`~repro.layout.nodetable.NodeTable`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GRID_KINDS", "NetCodec", "NetInterner", "NodeCodec"]

#: net kind strings of the grid scheme, by kind code; ``sc``/``ss`` keep
#: the codes the grid planner already uses for them
GRID_KINDS = ("sc", "ss", "straight", "cross", "feedback")

_INT64_CODES = 1 << 63  # codes live in [0, 2**63)


class NodeCodec:
    """Injective packing of structured node keys into int64.

    ``"grid"`` packs ``(row, stage)`` keys over radices ``(rows,
    stages)`` as ``row * stages + stage``; ``"int"`` keys in
    ``[0, radices[0])`` are their own codes.  Two codecs are equal iff
    they pack the same key space.
    """

    __slots__ = ("shape", "radices")

    def __init__(self, shape: str, radices: Sequence[int]) -> None:
        if shape not in ("grid", "int"):
            raise ValueError(f"unknown node shape {shape!r}")
        self.shape = shape
        self.radices = tuple(int(r) for r in radices)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NodeCodec) and other.shape == self.shape
                and other.radices == self.radices)

    def __hash__(self) -> int:
        return hash((self.shape, self.radices))

    def __repr__(self) -> str:
        return f"NodeCodec({self.shape!r}, {self.radices})"

    @property
    def arity(self) -> int:
        """Length of a key tuple; ``0`` for plain-int keys (the ``k`` of
        the realizes-graph edge rows)."""
        return 2 if self.shape == "grid" else 0

    def pack_keys(self, keys: np.ndarray) -> np.ndarray:
        """Codes of an ``(m, max(arity, 1))`` int array of keys; ``-1``
        for a key outside the codec's key space."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, max(self.arity, 1))
        ok = np.all((keys >= 0) & (keys < np.asarray(self.radices)), axis=1)
        if self.shape == "grid":
            code = keys[:, 0] * np.int64(self.radices[1]) + keys[:, 1]
        else:
            code = keys[:, 0]
        return np.where(ok, code, -1)

    def keys(self, codes: np.ndarray) -> List:
        """The key objects of a code array, in order."""
        codes = np.asarray(codes, dtype=np.int64)
        if self.shape == "int":
            return codes.tolist()
        rows, stages = np.divmod(codes, np.int64(self.radices[1]))
        return list(zip(rows.tolist(), stages.tolist()))


class NetCodec:
    """Injective mixed-radix packing of integer net fields into int64.

    ``shape`` names the net tuple layout the fields rebuild: ``"grid"``
    packs ``(u, s, v, t, kind)`` for ``((u, s), (v, t), GRID_KINDS[kind])``,
    ``"collinear"`` packs ``(a, b, copy)`` for ``(a, b, copy)``.
    """

    __slots__ = ("shape", "radices")

    def __init__(self, shape: str, radices: Sequence[int]) -> None:
        if shape not in ("grid", "collinear"):
            raise ValueError(f"unknown net shape {shape!r}")
        self.shape = shape
        self.radices = tuple(int(r) for r in radices)

    @classmethod
    def _fitting(cls, shape: str, radices: Sequence[int]) -> Optional["NetCodec"]:
        span = 1
        for r in radices:
            span *= max(int(r), 1)
        return cls(shape, radices) if span <= _INT64_CODES else None

    @classmethod
    def grid(cls, rows: int, stages: int) -> Optional["NetCodec"]:
        """Codec for grid-scheme nets over ``rows`` butterfly rows and
        ``stages`` stage columns, or ``None`` if it would overflow int64."""
        return cls._fitting(
            "grid", (rows, stages, rows, stages, len(GRID_KINDS))
        )

    @classmethod
    def collinear(cls, n: int, multiplicity: int) -> Optional["NetCodec"]:
        """Codec for collinear ``K_n`` nets with ``multiplicity`` copies."""
        return cls._fitting("collinear", (n, n, multiplicity))

    def pack(self, *fields) -> np.ndarray:
        """Codes for per-wire field arrays (scalars broadcast)."""
        if len(fields) != len(self.radices):
            raise ValueError(
                f"{self.shape} codec packs {len(self.radices)} fields, "
                f"got {len(fields)}"
            )
        code = np.asarray(fields[0], dtype=np.int64)
        for f, r in zip(fields[1:], self.radices[1:]):
            code = code * np.int64(r) + np.asarray(f, dtype=np.int64)
        return np.ascontiguousarray(code, dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NetCodec) and other.shape == self.shape
                and other.radices == self.radices)

    def __hash__(self) -> int:
        return hash((self.shape, self.radices))

    @property
    def node_codec(self) -> NodeCodec:
        """The codec of the node keys this codec's nets join."""
        if self.shape == "grid":
            return NodeCodec("grid", self.radices[:2])
        return NodeCodec("int", self.radices[:1])

    def fields(self, codes: np.ndarray) -> List[np.ndarray]:
        """Vectorized decode: one int64 array per packed field."""
        rest = np.asarray(codes, dtype=np.int64)
        out: List[np.ndarray] = []
        for r in reversed(self.radices[1:]):
            rest, x = np.divmod(rest, np.int64(r))
            out.append(x)
        out.append(rest)
        out.reverse()
        return out

    def endpoint_keys(self, codes: np.ndarray) -> np.ndarray:
        """``(wires, 2 * max(arity, 1))`` int64 rows of both endpoint
        keys, first endpoint first — ``n[0] + n[1]`` of grid net tuples,
        ``(n[0], n[1])`` of collinear ones."""
        f = self.fields(codes)
        ends = f[:4] if self.shape == "grid" else f[:2]
        return np.stack(ends, axis=1)

    def endpoints(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Node codes (under :attr:`node_codec`) of every net's first and
        second endpoint."""
        f = self.fields(codes)
        if self.shape == "grid":
            s = np.int64(self.radices[1])
            return f[0] * s + f[1], f[2] * s + f[3]
        return f[0], f[1]

    def __call__(self, code: int) -> Tuple:
        """The exact net tuple packed into ``code``."""
        f: List[int] = []
        rest = int(code)
        for r in reversed(self.radices[1:]):
            rest, x = divmod(rest, r)
            f.append(x)
        f.append(rest)
        f.reverse()
        if self.shape == "grid":
            return ((f[0], f[1]), (f[2], f[3]), GRID_KINDS[f[4]])
        return (f[0], f[1], f[2])


class NetInterner:
    """First-seen int64 codes for arbitrary hashable nets.

    Equal nets share a code, so code equality is net equality.  Calling
    the interner decodes a code back to the first-seen net object.
    """

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._nets: List[Hashable] = []

    def codes(self, nets: Sequence[Hashable]) -> np.ndarray:
        ids = self._ids
        return np.fromiter(
            (ids.setdefault(n, len(ids)) for n in nets), np.int64, len(nets)
        )

    def __call__(self, code: int):
        if len(self._nets) != len(self._ids):
            # dict insertion order is code order
            self._nets = list(self._ids)
        return self._nets[int(code)]
