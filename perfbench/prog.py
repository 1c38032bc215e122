"""Program-side process of the benchmark.

Runs one unit of work in a fresh interpreter, the way a user runs the
program, and reports back to ``run.py`` over stdout:

``campaign``  a cold ``repro.campaign.start_run`` (``workers=1``)
``layout``    one ``repro layout`` CLI query (``repro.cli.main``)
``serve``     ``repro serve`` (``repro.cli.main``); used by traced runs
              so the server process carries the wrappers

Protocol (``campaign``/``layout``): after the imports the process prints
one ``{"ready": ...}`` line, reads one job line (JSON) from stdin, prints
one result line and exits.  ``--probe`` exits right after the ready
line; the driver times process start to ready as set-up time.
``--trace FILE`` installs the span wrappers of :mod:`tracing` before the
ready line and writes the spans to ``FILE`` at exit.

Usage: python3 perfbench/prog.py {campaign,layout,serve} [--probe]
       [--trace FILE] [--run-id ID] [-- repro-serve-args...]
(``src`` must be on ``PYTHONPATH``.)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arrays_sha(arrays) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays or {}):
        a = arrays[name]
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _rusage() -> dict:
    """Peak RSS of this (main) process and of its waited-for children
    (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self_mib": own / 1024.0, "children_mib": kids / 1024.0}


def _entries(cache_dir: str) -> list:
    """``[key, kind, params]`` of every answer the unit stored."""
    from repro.service import ArtifactStore

    return [[e.key, e.kind, e.params]
            for e in ArtifactStore(cache_dir).ls()]


def _stop_tracing(tracer) -> None:
    """Keep the benchmark's own checking work out of the spans."""
    if tracer is not None:
        tracer.active_pid = None


def run_campaign(job: dict, tracer) -> dict:
    from repro.campaign import orchestrator
    from repro.service import query

    marks = []
    t0 = time.perf_counter()
    summary = orchestrator.start_run(
        job["spec"], runs_dir=job["runs_dir"], cache_dir=job["cache_dir"],
        workers=1, log=lambda _msg: marks.append(time.perf_counter()),
    )
    wall = time.perf_counter() - t0
    point_s = [b - a for a, b in zip([t0] + marks, marks)]
    out = {"wall_s": wall, "point_s": point_s,
           "manifest": os.path.join(summary["run_dir"], "manifest.json")}
    _stop_tracing(tracer)
    out["entries"] = _entries(job["cache_dir"])
    with open(out["manifest"]) as fh:
        manifest = json.load(fh)
    # the dims answer for every point, for the area check
    node_side = manifest["grid"]["config"]["node_side"]
    out["dims"] = {}
    for pt in manifest["points"]:
        s = query("dims", {"ks": pt["params"]["ks"],
                           "layers": pt["params"]["layers"],
                           "node_side": node_side})["summary"]
        out["dims"][pt["id"]] = [s["width"], s["height"]]
    return out


def run_layout(job: dict, tracer) -> dict:
    from repro.cli import main as cli_main
    from repro.service import ArtifactStore, cache_key, canonical_json

    t0 = time.perf_counter()
    rc = cli_main(job["argv"])
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "rc": rc}
    _stop_tracing(tracer)
    out["entries"] = _entries(job["cache_dir"])
    with open(job["json_out"]) as fh:
        result = json.load(fh)
    arrays = ArtifactStore(job["cache_dir"]).load_arrays(
        "layout", result["params"])
    out.update(
        valid=bool(result.get("valid")),
        wires=result["summary"]["wires"],
        key=cache_key("layout", result["params"]),
        result_sha256=_sha(canonical_json(result)),
        arrays_sha256=_arrays_sha(arrays),
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("campaign", "layout", "serve"))
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", default=None)
    ap.add_argument("--run-id", default="")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, serve_args = ap.parse_args(argv[:cut]), argv[cut + 1:]

    import repro.cli  # noqa: F401  (the CLI and every layer it reaches)
    import repro.campaign.orchestrator  # noqa: F401
    import repro.layout  # noqa: F401
    import repro.service  # noqa: F401

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
    try:
        if args.mode == "serve":
            return repro.cli.main(["serve", *serve_args])
        _send({"ready": True})
        if args.probe:
            return 0
        job = json.loads(sys.stdin.readline())
        run = run_campaign if args.mode == "campaign" else run_layout
        with open(job["log"], "a") as log, contextlib.redirect_stdout(log):
            out = run(job, tracer)
        out["rusage"] = _rusage()
        _send(out)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
