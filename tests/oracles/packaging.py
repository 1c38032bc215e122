"""Per-link and per-node Python loops: the differential oracles for the
columnar packaging kernels.

* :func:`count_off_module_links_legacy` — the original per-link
  enumeration behind :func:`repro.packaging.pins.count_off_module_links`;
* :func:`module_sizes_legacy` — the original per-node loop behind
  :meth:`repro.packaging.partition.Partition.module_sizes`;
* :func:`exact_pin_counts_legacy` — the original per-link loop behind
  :meth:`repro.packaging.baseline.NaiveRowPartition.exact_pin_counts`.

The columnar kernels must return the same totals *and* the same
per-module dicts, in the same key order.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.packaging.baseline import NaiveRowPartition
from repro.packaging.partition import Partition
from repro.packaging.pins import PinReport
from repro.topology.bits import flip_bit

__all__ = [
    "count_off_module_links_legacy",
    "exact_pin_counts_legacy",
    "module_sizes_legacy",
]


def count_off_module_links_legacy(partition: Partition) -> PinReport:
    """The original per-link enumeration; kept as a differential oracle."""
    sb = partition.sb
    per_module: Dict[Hashable, int] = {}
    sizes = module_sizes_legacy(partition)
    for m in sizes:
        per_module[m] = 0
    off = 0
    total = 0
    for u, v, _kind in sb.links():
        total += 1
        mu, mv = partition.module_of(u), partition.module_of(v)
        if mu != mv:
            off += 1
            per_module[mu] += 1
            per_module[mv] += 1
    return PinReport(
        num_modules=len(sizes),
        total_links=total,
        off_module_links=off,
        per_module=per_module,
        nodes_per_module=sizes,
    )


def module_sizes_legacy(self: Partition) -> Dict[Hashable, int]:
    """The original per-node loop; kept as a differential oracle."""
    sizes: Dict[Hashable, int] = {}
    for s in range(self.sb.stages):
        for u in range(self.sb.rows):
            m = self.module_of((u, s))
            sizes[m] = sizes.get(m, 0) + 1
    return sizes


def exact_pin_counts_legacy(self: NaiveRowPartition) -> Dict[int, int]:
    """The original per-link loop; kept as a differential oracle."""
    pins = {m: 0 for m in range(self.num_modules)}
    b = self.bfly
    for s in range(b.n):
        for r in range(b.rows):
            v = flip_bit(r, s)
            mu = r // self.rows_per_module
            mv = v // self.rows_per_module
            if mu != mv:
                pins[mu] += 1
                pins[mv] += 1
    return pins
