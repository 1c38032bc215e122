"""Out-of-process tracing for the benchmark: spans recorded around the
public functions of the ``repro`` modules, installed from here, never by
editing ``src/``.

A span is ``{id, name, start, end, parent, pid, run}`` plus optional
``attrs``; spans are kept in memory by a :class:`Tracer` and written as
JSONL when the traced process ends.  :func:`layer_metrics` turns the
spans of one unit of work into the per-layer metrics of
``BENCHMARK.json``.  Self time is a span's duration minus the durations
of its direct children (children of one span run in one thread, one
after the other, so the sum is the part of the interval they cover).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

# (module, attribute, span name, attrs(args, kwargs) or None)
FUNCTIONS = [
    ("repro.campaign.orchestrator", "start_run", "campaign.start_run", None),
    ("repro.campaign.orchestrator", "run_stage", "campaign.run_stage",
     lambda a, k: {"stage": a[0]}),
    ("repro.service.handlers", "query", "handlers.query",
     lambda a, k: {"kind": a[0]}),
    ("repro.service.handlers", "compute", "handlers.compute",
     lambda a, k: {"kind": a[0]}),
    ("repro.layout.grid_scheme", "build_grid_layout", "layout.build", None),
    ("repro.layout.validate", "validate_layout", "layout.validate", None),
    ("repro.layout.chunked", "chunked_grid_table", "chunked.plan", None),
    ("repro.layout.chunked_parallel", "parallel_validate",
     "parallel.validate", None),
    ("repro.packaging.pins", "count_off_module_links",
     "packaging.count_off_module_links", None),
    ("repro.algorithms.benes_routing", "route_permutations",
     "benes.route_permutations", lambda a, k: {"perms": len(a[0])}),
    ("repro.algorithms.queued_routing", "simulate_butterfly_queued",
     "queued.simulate", None),
    ("repro.algorithms.queued_routing", "saturation_per_node_rate",
     "queued.saturation", None),
]

# (module, class, attribute, span name, attrs(args, kwargs) or None)
METHODS = [
    ("repro.service.store", "ArtifactStore", "get", "store.get", None),
    ("repro.service.store", "ArtifactStore", "put", "store.put", None),
    ("repro.service.store", "ArtifactStore", "load_arrays",
     "store.load_arrays", None),
    ("repro.service.server", "ServiceHTTPHandler", "do_GET",
     "server.request",
     lambda a, k: {"req": a[0].headers.get("X-Bench-Req")}),
    ("repro.service.server", "ServiceHTTPHandler", "do_POST",
     "server.request",
     lambda a, k: {"req": a[0].headers.get("X-Bench-Req")}),
    ("repro.layout.chunked", "ChunkedBuild", "validate_and_summarize",
     "chunked.validate", None),
    ("repro.layout.chunked", "ChunkedBuild", "chunks",
     "chunked.reenumerate", None),
    ("repro.layout.wiretable", "WireTable", "concat", "chunked.concat", None),
    ("repro.packaging.baseline", "NaiveRowPartition", "exact_pin_counts",
     "packaging.exact_pin_counts", None),
    ("repro.transform.swap_butterfly", "SwapButterfly", "from_ks",
     "transform.from_ks", None),
]

STAGES = ("layout", "validate", "package", "benes", "saturation")
KINDS = ("layout", "dims", "package", "benes", "sim", "saturation")


class Tracer:
    """In-memory span recorder for one process.

    Spans are recorded only in the process that created the tracer:
    forked pool workers inherit the wrappers but run them untraced
    (worker-internal spans are out of scope; ``parallel.validate`` is
    timed from the parent side).  Setting ``active_pid`` to ``None``
    stops recording.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = self.active_pid = os.getpid()
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _record(self, sid: int, name: str, start: float, parent: Optional[int],
                attrs: Optional[Dict]) -> None:
        span = {"id": sid, "name": name, "start": start,
                "end": time.perf_counter(), "parent": parent,
                "pid": self.pid, "run": self.run_id}
        if attrs:
            span["attrs"] = attrs
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.active_pid:
                return fn(*args, **kwargs)
            a = attrs(args, kwargs) if attrs else None
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            if name == "store.get":
                a = {"hit": result is not None}
            elif name == "layout.build":
                a = {"wires": int(result.layout.num_wires())}
            elif name == "chunked.reenumerate":
                return tracer._iterate(sid, name, start, parent, result)
            tracer._record(sid, name, start, parent, a)
            return result

        return traced

    def _iterate(self, sid: int, name: str, start: float,
                 parent: Optional[int], it: Iterable):
        """A chunk stream is timed from the call until it is exhausted;
        spans opened inside ``next`` nest under it."""
        n = 0
        stack = self._stack()
        it = iter(it)
        while True:
            stack.append(sid)
            try:
                item = next(it)
            except StopIteration:
                break
            finally:
                stack.pop()
            n += 1
            yield item
        self._record(sid, name, start, parent, {"chunks": n})

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every target.  A function is rebound in every loaded
    ``repro`` module that holds it, so ``from x import f`` copies are
    traced too; lazy imports inside functions read the patched module
    attribute at call time."""
    for spec in FUNCTIONS + METHODS:
        importlib.import_module(spec[0])
    for mod, attr, name, attrs in FUNCTIONS:
        orig = getattr(sys.modules[mod], attr)
        traced = tracer.wrap(name, orig, attrs)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and \
                    vars(other).get(attr) is orig:
                setattr(other, attr, traced)
    for mod, cls_name, attr, name, attrs in METHODS:
        cls = getattr(importlib.import_module(mod), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr,
                    classmethod(tracer.wrap(name, raw.__func__, attrs)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, attrs))


def load_spans(paths: Iterable[str]) -> List[Dict]:
    spans: List[Dict] = []
    for p in paths:
        if os.path.exists(p):
            with open(p) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans: List[Dict]) -> List[Dict]:
    """Each span with ``dur`` and ``self`` (duration minus children)."""
    child_sum: Dict = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            k = (s["pid"], s["parent"])
            child_sum[k] = child_sum.get(k, 0.0) + s["dur"]
    for s in spans:
        s["self"] = s["dur"] - child_sum.get((s["pid"], s["id"]), 0.0)
    return spans


def layer_metrics(spans: List[Dict], client_ms: Optional[Dict] = None
                  ) -> Dict[str, float]:
    """Per-layer metrics of one unit of work from its spans.

    ``client_ms`` maps a request id to its client-side latency;
    ``server.transport_ms_p50`` is the median of client latency minus
    the server's request span.  Layers that did not run
    read 0.
    """
    self_times(spans)
    out: Dict[str, float] = {}

    def tot(name: str, pred=None) -> float:
        return sum(s["self"] for s in spans
                   if s["name"] == name and (pred is None or pred(s)))

    def cnt(name: str, pred=None) -> int:
        return sum(1 for s in spans
                   if s["name"] == name and (pred is None or pred(s)))

    def attr(s: Dict, key: str):
        return s.get("attrs", {}).get(key)

    for st in STAGES:
        out[f"campaign.stage.{st}_s"] = tot(
            "campaign.run_stage", lambda s, st=st: attr(s, "stage") == st)
    out["campaign.overhead_s"] = tot("campaign.start_run")
    out["handlers.query_s"] = tot("handlers.query")
    for kind in KINDS:
        pred = (lambda s, kind=kind: attr(s, "kind") == kind)
        out[f"handlers.compute.{kind}_s"] = tot("handlers.compute", pred)
        out[f"handlers.compute.{kind}_n"] = cnt("handlers.compute", pred)
    gets = cnt("store.get")
    out["store.get_s"] = tot("store.get")
    out["store.get_n"] = gets
    out["store.hit_ratio"] = (
        cnt("store.get", lambda s: attr(s, "hit")) / gets if gets else 0.0)
    out["store.put_s"] = tot("store.put")
    out["store.put_n"] = cnt("store.put")
    out["store.load_arrays_s"] = tot("store.load_arrays")
    out["server.handle_s"] = tot("server.request")
    transport = []
    if client_ms:
        for s in spans:
            if s["name"] == "server.request" and attr(s, "req") in client_ms:
                transport.append(client_ms[attr(s, "req")] - s["dur"] * 1e3)
    out["server.transport_ms_p50"] = (
        statistics.median(transport) if transport else 0.0)
    out["layout.build_s"] = tot("layout.build")
    out["layout.validate_s"] = tot("layout.validate")
    out["layout.wires_n"] = sum(attr(s, "wires") or 0 for s in spans
                                if s["name"] == "layout.build")
    out["chunked.plan_s"] = tot("chunked.plan")
    out["chunked.validate_s"] = tot("chunked.validate")
    out["chunked.reenumerate_s"] = tot("chunked.reenumerate")
    out["chunked.concat_s"] = tot("chunked.concat")
    out["chunked.chunks_n"] = sum(attr(s, "chunks") or 0 for s in spans
                                  if s["name"] == "chunked.reenumerate")
    out["parallel.validate_s"] = tot("parallel.validate")
    out["packaging.count_off_module_links_s"] = tot(
        "packaging.count_off_module_links")
    out["packaging.exact_pin_counts_s"] = tot("packaging.exact_pin_counts")
    out["benes.route_permutations_s"] = tot("benes.route_permutations")
    out["benes.perms_n"] = sum(attr(s, "perms") or 0 for s in spans
                               if s["name"] == "benes.route_permutations")
    out["queued.simulate_s"] = tot("queued.simulate")
    out["queued.simulate_n"] = cnt("queued.simulate")
    out["queued.saturation_s"] = tot("queued.saturation")
    out["transform.from_ks_s"] = tot("transform.from_ks")
    return out
