"""The repo benchmark: four workloads over the ``repro`` program.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (rationale in ``perfbench/README.md``): ``campaign_cold``,
``layout_tight``, ``layout_roomy``, ``query_mix``.  The seed drives the
inputs: the campaign base seed, and the Zipf query stream of the mix.

Every unit of work runs the program in fresh processes (``prog.py`` or
``python -m repro serve``) with a private ``TMPDIR``, cache and run
directory under ``.perfbench/work/``; the driver times set-up and the
unit from outside, reads peak RSS from ``rusage``, and checks every
output (``checks.py``).  Units repeat until ``--seconds`` is used up
(at least one).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` installs the span wrappers (``tracing.py``) in the
program processes, alternates untraced and traced units, and prints the
per-layer metrics with ``trace.overhead_frac``.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; a failed check makes the exit code 1, an unusable checkout
(no ``src/repro``) exits 2 without a result.  A stamped report (git SHA
or source digest, seed, parameters, machine fingerprint, sample counts)
is printed above it and kept in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional
from urllib.parse import urlencode

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
PROG = os.path.join(HERE, "prog.py")

WORKLOADS = ("campaign_cold", "layout_tight", "layout_roomy", "query_mix")

CAMPAIGN_GRID = {
    "ks": [[2, 2, 2], [3, 3, 2], [3, 3, 3], [4, 3, 3], [4, 4, 3], [4, 4, 4]],
    "layers": [2, 3],
    "rate": [0.5, 0.9],
}
LAYOUTS = {
    "layout_tight": {"ks": [5, 4, 4], "memory_budget_bytes": 8 << 20,
                     "workers": 2},
    "layout_roomy": {"ks": [4, 4, 4], "memory_budget_bytes": 256 << 20,
                     "workers": 1},
}
MIX_DESIGNS = [[2, 2, 2], [3, 2, 2], [3, 3, 2], [3, 3, 3], [4, 3, 3],
               [4, 4, 2]]
MIX_QUERIES = 1060      # 39 first references (misses), the rest repeats
MIX_CONNECTIONS = 2
ZIPF_S = 1.1
WARM_HITS = 40          # warm HTTP re-queries after a campaign / layout unit
SETUP_PROBES = 1        # extra set-ups before and after each unit (untraced)
DEADLINE_S = 170.0      # every child is killed past this
SAMPLE_S = 0.05         # spill-directory sampling period (traced runs)

class BenchError(RuntimeError):
    """The benchmark could not run the program (not a wrong answer)."""


def mix_catalog() -> List[tuple]:
    """The ~40 distinct queries of ``query_mix``, in popularity order
    (fixed; the seed only draws the stream)."""
    cat = []
    for ks in MIX_DESIGNS:
        k = ",".join(map(str, ks))
        cat += [("dims", {"ks": k, "layers": 2}),
                ("dims", {"ks": k, "layers": 3}),
                ("package", {"ks": k}),
                ("layout", {"ks": k})]
    cat += [("benes", {"n": n}) for n in range(4, 11)]
    cat += [("sim", {"n": n, "rate": r}) for n in range(3, 7)
            for r in (0.4, 0.8)]
    random.Random(0).shuffle(cat)
    return cat


def zipf_stream(seed: int, n: int, size: int) -> List[int]:
    """``n`` catalog indices: Zipf(``ZIPF_S``) draws plus one reference
    to every entry at a seeded position, so each entry misses once."""
    rng = random.Random(seed)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(size)]
    stream = rng.choices(range(size), weights, k=n - size)
    for i in range(size):
        stream.insert(rng.randrange(len(stream) + 1), i)
    return stream


@dataclass
class Unit:
    """One unit of work and what was measured around it."""

    traced: bool
    wall_s: float
    setup_s: float
    rss_mib: float
    answers: int
    attempted: int
    failures: List[str]
    self_test: Dict[str, bool]
    miss_ms: List[float] = field(default_factory=list)
    hit_ms: List[float] = field(default_factory=list)
    coalesced: int = 0  # repeats that waited on their query's miss
    tree_mib: float = 0.0  # wait4 peak over the program's process tree
    layers: Dict[str, float] = field(default_factory=dict)


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _p99(xs: List[float]) -> float:
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.lstat(os.path.join(dirpath, f)).st_size
            except OSError:
                pass  # removed while walking
    return total


class SpillSampler:
    """Samples the size of a unit's private ``TMPDIR`` from outside."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_S):
            self.peak = max(self.peak, _tree_bytes(self.path))

    def __enter__(self) -> "SpillSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Bench:
    """One benchmark run: its directories, child processes and units."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.run_id = (f"{args.workload}-s{args.seed}-t{args.trace}-"
                       f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
        self.work = os.path.join(STATE, "work", self.run_id)
        self.traces = os.path.join(STATE, "traces", self.run_id)
        self.procs: List[subprocess.Popen] = []
        self.n_units = 0
        self.ref: Dict = {}
        self._lock = threading.Lock()
        self._timer = threading.Timer(DEADLINE_S, self.kill_all)
        self._timer.daemon = True
        self._timer.start()

    # -- processes -----------------------------------------------------
    def unit_dir(self) -> str:
        self.n_units += 1
        d = os.path.join(self.work, f"u{self.n_units}")
        os.makedirs(os.path.join(d, "tmp"))
        return d

    def trace_path(self, d: str, proc: str = "program") -> str:
        os.makedirs(self.traces, exist_ok=True)
        return os.path.join(self.traces,
                            f"{os.path.basename(d)}-{proc}.jsonl")

    def spawn(self, argv: List[str], d: str, stdin=None) -> subprocess.Popen:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["TMPDIR"] = os.path.join(d, "tmp")
        env["PYTHONUNBUFFERED"] = "1"
        with open(os.path.join(d, "stderr.log"), "ab") as err:
            p = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=stdin,
                                 stdout=subprocess.PIPE, stderr=err,
                                 text=True)
        with self._lock:
            self.procs.append(p)
        return p

    def reap(self, p: subprocess.Popen, timeout: float):
        """``(exit code, rusage)`` via a blocking ``wait4`` (the process
        is killed after ``timeout`` seconds): ``ru_maxrss`` is the
        largest peak RSS in the process tree."""
        killer = threading.Timer(timeout, p.kill)
        killer.daemon = True
        killer.start()
        try:
            _pid, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        for stream in (p.stdin, p.stdout):
            if stream:
                stream.close()
        return p.returncode, ru

    def kill_all(self) -> None:
        with self._lock:
            for p in self.procs:
                if p.returncode is None:
                    p.kill()

    def close(self) -> None:
        self._timer.cancel()
        self.kill_all()
        for p in self.procs:
            if p.returncode is None:
                self.reap(p, 10)
        shutil.rmtree(self.work, ignore_errors=True)

    def _fail(self, what: str, d: str) -> BenchError:
        try:
            with open(os.path.join(d, "stderr.log")) as fh:
                tail = fh.read()[-2000:]
        except OSError:
            tail = ""
        return BenchError(f"{what}\n{tail}")

    # -- program (campaign / layout) --------------------------------------
    def start_program(self, mode: str, d: str, traced: bool,
                      probe: bool = False):
        argv = [sys.executable, PROG, mode]
        if probe:
            argv.append("--probe")
        if traced:
            argv += ["--trace", self.trace_path(d), "--run-id", self.run_id]
        t0 = time.perf_counter()
        p = self.spawn(argv, d, stdin=subprocess.PIPE)
        line = p.stdout.readline()
        setup = time.perf_counter() - t0
        if not line:
            self.reap(p, 10)
            raise self._fail(f"{mode} program exited before it was ready", d)
        return p, setup

    def finish_program(self, p: subprocess.Popen, d: str, job: Dict) -> Dict:
        job["log"] = os.path.join(d, "program.log")
        p.stdin.write(json.dumps(job) + "\n")
        p.stdin.flush()
        line = p.stdout.readline()
        code, ru = self.reap(p, 60)
        if code != 0 or not line:
            raise self._fail(f"program failed (exit {code})", d)
        out = json.loads(line)
        out["tree_peak_mib"] = ru.ru_maxrss / 1024.0
        return out

    def probe_setup(self) -> float:
        d = self.unit_dir()
        p, setup = self.start_program("campaign", d, False, probe=True)
        if self.reap(p, 30)[0] != 0:
            raise self._fail("set-up probe failed", d)
        return setup

    # -- server (query mix) ---------------------------------------------
    def start_server(self, d: str, traced: bool):
        serve_args = ["--port", "0", "--quiet",
                      "--cache-dir", os.path.join(d, "cache")]
        if traced:
            argv = [sys.executable, PROG, "serve", "--trace",
                    self.trace_path(d, "server"), "--run-id", self.run_id,
                    "--", *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        t0 = time.perf_counter()
        p = self.spawn(argv, d)
        line = p.stdout.readline()
        m = re.search(r"http://[^:]+:(\d+)", line)
        if not m:
            self.reap(p, 10)
            raise self._fail("repro serve did not start", d)
        port = int(m.group(1))
        while True:
            if time.perf_counter() - t0 > 60:
                self.reap(p, 0)
                raise self._fail("repro serve never answered /v1/health", d)
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=30)
                conn.request("GET", "/v1/health")
                ok = conn.getresponse().status == 200
                conn.close()
                if ok:
                    break
            except OSError:
                time.sleep(0.002)
        return p, time.perf_counter() - t0, port

    def stop_server(self, p: subprocess.Popen, d: str):
        p.send_signal(signal.SIGINT)
        code, ru = self.reap(p, 30)
        if code != 0:
            raise self._fail(f"repro serve exited {code}", d)
        return ru.ru_maxrss / 1024.0

    def probe_server(self) -> float:
        d = self.unit_dir()
        p, setup, _port = self.start_server(d, False)
        self.stop_server(p, d)
        return setup

    def warm_hits(self, d: str, entries: List, refs: Dict[str, str],
                  traced: bool):
        """Re-fetch every answer a unit stored from ``repro serve`` over
        the unit's cache, round-robin, ``WARM_HITS`` times over the mix's
        keep-alive connections; returns the response rows, the
        ``[key, body_sha256, disposition]`` hit rows and their check
        failures."""
        catalog = [(kind, _query_params(params))
                   for _key, kind, params in entries]
        stream = [i % len(catalog) for i in range(WARM_HITS)]
        p, _setup, port = self.start_server(d, traced)
        try:
            rows, _wall = closed_loop(port, catalog, stream)
        finally:
            self.stop_server(p, d)
        hits = [[entries[r["qid"]][0], hashlib.sha256(r["body"]).hexdigest(),
                 r["cache"] if r["status"] == 200 else f"HTTP {r['status']}"]
                for r in rows]
        return rows, hits, checks.check_hits(hits, refs)

    # -- units --------------------------------------------------------------
    def finish_unit(self, d: str, unit: Unit, worker_mib: float = 0.0,
                    spill_peak: int = 0, client_ms: Optional[Dict] = None
                    ) -> Unit:
        tmp = os.path.join(d, "tmp")
        leftover = [n for n in os.listdir(tmp)
                    if n.startswith(("repro-chunked-", "repro-parallel-"))]
        if unit.traced:
            spans = tracing.load_spans([self.trace_path(d),
                                        self.trace_path(d, "server")])
            unit.layers.update(tracing.layer_metrics(spans, client_ms))
        unit.layers.update({
            "store.bytes_mib": _tree_bytes(os.path.join(d, "cache")) / 2**20,
            "chunked.spill_peak_mib": spill_peak / 2**20,
            "chunked.leftover_tmp_n": len(leftover),
            "parallel.worker_peak_rss_mib": worker_mib,
        })
        shutil.rmtree(d, ignore_errors=True)
        return unit

    def campaign_unit(self, traced: bool) -> Unit:
        d = self.unit_dir()
        spec = dict(CAMPAIGN_GRID, config={"seed": self.args.seed})
        p, setup = self.start_program("campaign", d, traced)
        out = self.finish_program(p, d, {
            "spec": spec, "runs_dir": os.path.join(d, "runs"),
            "cache_dir": os.path.join(d, "cache")})
        with open(out["manifest"]) as fh:
            manifest = json.load(fh)
        refs = checks.campaign_refs(manifest)
        rows, hits, hit_failures = self.warm_hits(d, out["entries"], refs,
                                                  traced)
        stages = len(manifest["points"]) * len(checks.STAGES)
        unit = Unit(
            traced=traced, wall_s=out["wall_s"], setup_s=setup,
            rss_mib=out["rusage"]["self_mib"], answers=stages,
            attempted=stages + len(rows),
            failures=checks.check_campaign(manifest, out["dims"])
            + hit_failures,
            self_test=checks.self_test("campaign", {
                "manifest": manifest, "dims": out["dims"],
                "hits": hits, "hit_refs": refs}),
            miss_ms=[s * 1e3 for s in out["point_s"]],
            hit_ms=[r["ms"] for r in rows], tree_mib=out["tree_peak_mib"])
        return self.finish_unit(d, unit, out["rusage"]["children_mib"],
                                client_ms=_client_ms(rows))

    def layout_job(self, d: str, argv_extra: List[str]) -> Dict:
        cfg = LAYOUTS[self.args.workload]
        cache = os.path.join(d, "cache")
        answer = os.path.join(d, "answer.json")
        return {"argv": ["layout", "--ks", ",".join(map(str, cfg["ks"])),
                         "--cache-dir", cache, "--json", answer,
                         *argv_extra],
                "cache_dir": cache, "json_out": answer}

    def layout_reference(self) -> Dict:
        """The monolithic answer's digests for this workload's design,
        computed once per checkout outside any timed phase."""
        ks = LAYOUTS[self.args.workload]["ks"]
        path = os.path.join(STATE, "ref",
                            "layout-" + "-".join(map(str, ks)) + ".json")
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh)
        d = self.unit_dir()
        p, _setup = self.start_program("layout", d, False)
        out = self.finish_program(p, d, self.layout_job(d, []))
        if out["rc"] != 0 or not out["valid"]:
            raise self._fail("monolithic reference layout failed", d)
        ref = {k: out[k] for k in ("result_sha256", "arrays_sha256", "wires",
                                   "wall_s")}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as fh:
            json.dump(ref, fh)
        os.replace(path + ".tmp", path)
        shutil.rmtree(d, ignore_errors=True)
        return ref

    def layout_unit(self, traced: bool) -> Unit:
        cfg = LAYOUTS[self.args.workload]
        d = self.unit_dir()
        job = self.layout_job(d, [
            "--memory-budget", str(cfg["memory_budget_bytes"]),
            "--workers", str(cfg["workers"])])
        tmp = os.path.join(d, "tmp")
        with SpillSampler(tmp) if traced else contextlib.nullcontext() as s:
            p, setup = self.start_program("layout", d, traced)
            out = self.finish_program(p, d, job)
        hit_refs = {out["key"]: out["result_sha256"]}
        rows, hits, hit_failures = self.warm_hits(d, out["entries"],
                                                  hit_refs, traced)
        unit = Unit(
            traced=traced, wall_s=out["wall_s"], setup_s=setup,
            rss_mib=out["rusage"]["self_mib"], answers=1,
            attempted=1 + len(rows),
            failures=checks.check_layout(out, self.ref) + hit_failures,
            self_test=checks.self_test("layout", {
                "out": out, "ref": self.ref, "hits": hits,
                "hit_refs": hit_refs}),
            miss_ms=[out["wall_s"] * 1e3], hit_ms=[r["ms"] for r in rows],
            tree_mib=out["tree_peak_mib"])
        return self.finish_unit(d, unit, out["rusage"]["children_mib"],
                                spill_peak=s.peak if traced else 0,
                                client_ms=_client_ms(rows))

    def mix_unit(self, traced: bool) -> Unit:
        d = self.unit_dir()
        catalog = mix_catalog()
        stream = zipf_stream(self.args.seed, MIX_QUERIES, len(catalog))
        p, setup, port = self.start_server(d, traced)
        try:
            rows, wall = closed_loop(port, catalog, stream)
        finally:
            rss = self.stop_server(p, d)
        miss_bodies = {r["qid"]: r["body"] for r in rows
                       if r["cache"] == "miss"}
        failures = checks.check_responses(rows, miss_bodies)
        unit = Unit(
            traced=traced, wall_s=wall, setup_s=setup, rss_mib=rss,
            answers=len(rows), attempted=len(stream), failures=failures,
            self_test=checks.self_test("query_mix", {
                "rows": rows, "miss_bodies": miss_bodies}),
            miss_ms=[r["ms"] for r in rows if r["cache"] == "miss"],
            hit_ms=[r["ms"] for r in rows
                    if r["cache"] == "hit" and r["warm"]],
            coalesced=sum(1 for r in rows
                          if r["cache"] == "hit" and not r["warm"]),
            tree_mib=rss)
        return self.finish_unit(d, unit, client_ms=_client_ms(rows))


def _client_ms(rows: List[Dict]) -> Dict[str, float]:
    return {str(r["req"]): r["ms"] for r in rows}


def _query_params(params: Dict) -> Dict[str, str]:
    """Stored (normalized) params in the query-string spelling the
    server's converters accept."""
    out = {}
    for k, v in params.items():
        if isinstance(v, bool):
            out[k] = "true" if v else "false"
        elif isinstance(v, list):
            out[k] = ",".join(map(str, v))
        elif v is not None:
            out[k] = str(v)
    return out


def closed_loop(port: int, catalog: List[tuple], stream: List[int]):
    """Send ``stream`` over ``MIX_CONNECTIONS`` persistent HTTP/1.1
    connections; each connection sends its next query only after the
    previous answer arrived.  A repeat counts as a hit only if its
    query's first answer had arrived before it was sent."""
    lock = threading.Lock()
    todo = iter(enumerate(stream))
    answered: set = set()
    rows: List[Dict] = []
    errors: List[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    nxt = next(todo, None)
                    if nxt is None:
                        return
                    req, qid = nxt
                    warm = qid in answered
                kind, params = catalog[qid]
                t = time.perf_counter()
                conn.request("GET", f"/v1/{kind}?{urlencode(params)}",
                             headers={"X-Bench-Req": str(req)})
                resp = conn.getresponse()
                body = resp.read()
                done = time.perf_counter()
                with lock:
                    answered.add(qid)
                    rows.append({
                        "req": req, "qid": qid, "status": resp.status,
                        "cache": resp.getheader("X-Repro-Cache"),
                        "warm": warm, "body": body,
                        "ms": (done - t) * 1e3})
        except BaseException as e:  # re-raised in the driver thread
            errors.append(e)
        finally:
            conn.close()

    threads = [threading.Thread(target=client)
               for _ in range(MIX_CONNECTIONS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise BenchError(f"query mix client failed: {errors[0]!r}")
    return rows, wall


# ----------------------------------------------------------------------
# stamp and report
# ----------------------------------------------------------------------

def _git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return r.stdout.strip() or None


def _source_sha() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, src).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _numpy_version() -> Optional[str]:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def workload_params(workload: str) -> Dict:
    if workload == "campaign_cold":
        return {"grid": CAMPAIGN_GRID, "workers": 1, "warm_hits": WARM_HITS}
    if workload in LAYOUTS:
        return dict(LAYOUTS[workload], warm_hits=WARM_HITS)
    return {"queries": MIX_QUERIES, "catalog": len(mix_catalog()),
            "connections": MIX_CONNECTIONS, "zipf_s": ZIPF_S,
            "loop": "closed"}


def unit_miss_ms(workload: str, unit: Unit) -> float:
    """One unit's cold-answer latency: on ``query_mix`` the median of its
    39 HTTP misses; on ``campaign_cold`` the mean over its 24 points (a
    median of such unlike points falls among the smallest and noisiest
    ones); on ``layout_*`` its one cold query."""
    if workload == "query_mix":
        return statistics.median(unit.miss_ms)
    return statistics.fmean(unit.miss_ms)


def end_to_end(workload: str, units: List[Unit],
               setups: List[float]) -> Dict[str, float]:
    hits = [x for u in units for x in u.hit_ms]
    attempted = sum(u.attempted for u in units)
    failed = sum(len(u.failures) for u in units)
    return {
        "setup_s": _median(setups),
        "wall_s": _median([u.wall_s for u in units]),
        "peak_rss_mib": _median([u.rss_mib for u in units]),
        "miss_ms": _median([unit_miss_ms(workload, u) for u in units]),
        "hit_p50_ms": _median(hits),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(traced: List[Unit], untraced: List[Unit]) -> Dict[str, float]:
    names = sorted({k for u in traced for k in u.layers})
    out = {k: _median([u.layers.get(k, 0.0) for u in traced]) for k in names}
    out["trace.overhead_frac"] = (
        _median([u.wall_s for u in traced])
        / _median([u.wall_s for u in untraced]) - 1.0)
    return out


def declared_units(trace: int) -> Dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares for
    this kind of run (end-to-end, or per-layer when traced)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def run(args: argparse.Namespace) -> int:
    load_start = os.getloadavg()
    b = Bench(args)
    try:
        unit_fn = {"campaign_cold": b.campaign_unit,
                   "layout_tight": b.layout_unit,
                   "layout_roomy": b.layout_unit,
                   "query_mix": b.mix_unit}[args.workload]
        probe = b.probe_server if args.workload == "query_mix" \
            else b.probe_setup
        probe()  # warm-up: byte-compiles a fresh checkout, not counted
        if args.workload in LAYOUTS:
            b.ref = b.layout_reference()
        # set-up samples are spread over the run, between units
        n_probes = 0 if args.trace else SETUP_PROBES
        setups = [probe() for _ in range(n_probes)]
        units: List[Unit] = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            # traced runs alternate untraced and traced units, so the
            # tracing overhead is measured in the same run
            traced = bool(args.trace) and len(units) % 2 == 1
            t = time.perf_counter()
            units.append(unit_fn(traced))
            setups += [probe() for _ in range(n_probes)]
            longest = max(longest, time.perf_counter() - t)
            # start another unit only if three quarters of the longest
            # one so far still fit, so a run ends by 8/7 of --seconds
            enough = not args.trace or len(units) >= 2
            if enough and (time.perf_counter() - start + 0.75 * longest
                           > args.seconds):
                break
    finally:
        b.close()

    plain = [u for u in units if not u.traced]
    if args.trace:
        metrics = per_layer([u for u in units if u.traced], plain)
    else:
        metrics = end_to_end(args.workload, units,
                             setups + [u.setup_s for u in units])
    units_of = declared_units(args.trace)
    if set(metrics) != set(units_of):
        raise BenchError("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units_of))}")
    attempted = sum(u.attempted for u in units)
    failures = [f for u in units for f in u.failures]
    self_test: Dict[str, bool] = {}
    for u in units:
        for k, v in u.self_test.items():
            self_test[k] = self_test.get(k, True) and v
    correct = not failures and all(self_test.values())

    hits_all = [x for u in plain for x in u.hit_ms]
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": workload_params(args.workload),
        "git_sha": _git_sha(), "source_sha256": _source_sha(),
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": _numpy_version(),
            "loadavg_start": load_start,
        },
        "units": len(units), "traced_units": len(units) - len(plain),
        "monolithic_reference": b.ref or None,
        "samples": {
            "setup_s": 0 if args.trace else len(setups) + len(units),
            "wall_s": len(plain),
            "miss_ms": sum(len(u.miss_ms) for u in plain),
            "hit_ms": sum(len(u.hit_ms) for u in plain),
            "coalesced": sum(u.coalesced for u in plain),
        },
        # too unsteady run to run on a shared 2-core host to be gated;
        # reported for every run with its sample count above
        "hit_p99_ms": _p99(hits_all) if len(hits_all) >= 1000 else None,
        # answers / wall_s: a unit's answer count is fixed, so gating it
        # would gate wall_s a second time
        "queries_per_s": (sum(u.answers for u in plain)
                          / sum(u.wall_s for u in plain)) if plain else None,
        "raw": {
            "setup_s": setups + [u.setup_s for u in plain],
            "wall_s": [u.wall_s for u in plain],
            "peak_rss_mib": [u.rss_mib for u in plain],
            "tree_peak_rss_mib": [u.tree_mib for u in plain],
            "miss_ms": [unit_miss_ms(args.workload, u) for u in plain],
            "hit_p50_ms": [_median(u.hit_ms) for u in plain],
            "traced_wall_s": [u.wall_s for u in units if u.traced],
        },
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "self_test": self_test,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", b.run_id + ".json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)}")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units_of[name]}")
    if report["queries_per_s"] is not None:
        print(f"  {'queries_per_s (reported, not gated)':38s} "
              f"{report['queries_per_s']:14.6g} 1/s")
    if report["hit_p99_ms"] is not None:
        print(f"  {'hit_p99_ms (reported, not gated)':38s} "
              f"{report['hit_p99_ms']:14.6g} ms  (n={len(hits_all)})")
    print(f"  failed_frac {report['failed_frac']:.6g} "
          f"({len(failures)} of {attempted}); self-test "
          f"{sum(self_test.values())}/{len(self_test)} checks fired")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units_of[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program here (src/repro is missing)",
              file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
