"""Dependency-light HTTP front end for the design service.

Stdlib only (``http.server``): the library stays importable with bare
NumPy, and ``repro serve`` needs nothing the test environment does not
already have.  Threaded when the platform provides ``ThreadingHTTPServer``
(the normal case), with a graceful single-threaded fallback otherwise;
either way the artifact store's single-flight locking keeps concurrent
identical misses from computing twice.  The server computes
``layout`` misses one at a time on one long-lived thread (see
:class:`ComputeLane`), so its peak memory is one layout's, whichever
connections ask and however their misses overlap.

Routes (all answers are canonical JSON — sorted keys, compact — so a
warm hit is byte-identical to the cold compute that populated it; the
``X-Repro-Cache`` header, not the body, says which one served you):

==============================  ========================================
``GET /v1/health``              liveness + schema version
``GET /v1/cache/stats``         entry/byte counts per kind
``GET /v1/<kind>?ks=3,3,3&...`` query via query-string parameters
``POST /v1/query``              query via JSON body ``{kind, params}``
==============================  ========================================

Malformed queries (unknown kind, bad parameter vector) answer ``400``
with ``{"error": ...}``; unknown routes ``404``; compute crashes ``500``.
"""

from __future__ import annotations

import contextvars
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from .handlers import QUERY_KINDS, QueryError, query
from .store import SCHEMA_VERSION, ArtifactStore, canonical_json

__all__ = ["ComputeLane", "ServiceHTTPHandler", "make_server", "serve"]

try:  # pragma: no cover - always present on CPython >= 3.7
    from http.server import ThreadingHTTPServer as _ServerBase
except ImportError:  # pragma: no cover - single-threaded fallback
    _ServerBase = HTTPServer


class ComputeLane:
    """Runs the misses of memory-heavy kinds serially on one thread.

    A layout miss holds O(wires) arrays; two overlapping ones would hold
    both.  Running them on one long-lived thread also keeps their
    allocations in one malloc arena, so memory a finished layout freed
    is reused by the next one instead of sitting in another thread's
    arena.  A job runs in a copy of its caller's context.  Other kinds
    run inline on the connection's thread.  Pass :meth:`run` as
    ``query(runner=...)``; :meth:`close` joins the thread.
    """

    HEAVY_KINDS = frozenset({"layout"})

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None

    def run(self, kind: str, fn: Callable[[], Dict]) -> Dict:
        if kind not in self.HEAVY_KINDS:
            return fn()
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-compute")
            fut = self._pool.submit(contextvars.copy_context().run, fn)
        return fut.result()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ServiceHTTPHandler(BaseHTTPRequestHandler):
    """One design query per request; see the module docstring for routes."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # headers and body go out in separate writes; with Nagle on, the body
    # of a keep-alive reply waits for the client's delayed ACK
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------
    @property
    def store(self) -> Optional[ArtifactStore]:
        return self.server.artifact_store

    def log_message(self, fmt: str, *args) -> None:
        if getattr(self.server, "quiet", False):
            return
        super().log_message(fmt, *args)

    def _send_json(
        self, status: int, payload: Dict, headers: Optional[Dict] = None
    ) -> None:
        body = canonical_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _answer(self, kind: str, params: Dict) -> None:
        info: Dict[str, object] = {}
        try:
            result = query(
                kind, params,
                store=self.store,
                use_cache=self.server.use_cache,
                info=info,
                runner=self.server.compute_lane.run,
            )
        except QueryError as e:
            self._send_json(400, {"error": str(e), "kind": kind})
            return
        except Exception as e:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"internal error: {e}"})
            return
        self._send_json(
            200, result,
            headers={
                "X-Repro-Cache": str(info.get("cache", "off")),
                "X-Repro-Key": str(info.get("key", "")),
            },
        )

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path, params = self._split()
        if path == "/v1/health":
            self._send_json(
                200,
                {"ok": True, "schema_version": SCHEMA_VERSION,
                 "kinds": list(QUERY_KINDS)},
            )
        elif path == "/v1/cache/stats":
            if self.store is None:
                self._send_json(200, {"entries": 0, "cache": "off"})
            else:
                self._send_json(200, self.store.stats())
        elif path.startswith("/v1/"):
            self._answer(path[len("/v1/"):], params)
        else:
            self._send_json(404, {"error": f"no such route {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path, _params = self._split()
        if path != "/v1/query":
            self._send_json(404, {"error": f"no such route {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            doc = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(doc, dict):
                raise ValueError("body must be a JSON object")
            kind = doc.get("kind")
            params = doc.get("params", {})
            if not isinstance(kind, str):
                raise ValueError('body must carry a string "kind"')
        except (ValueError, UnicodeDecodeError) as e:
            self._send_json(400, {"error": f"bad request body: {e}"})
            return
        self._answer(kind, params)

    def _split(self) -> Tuple[str, Dict[str, str]]:
        parts = urlsplit(self.path)
        return parts.path.rstrip("/") or "/", dict(parse_qsl(parts.query))


class _LaneClosing:
    """``server_close`` also joins the server's compute lane."""

    def server_close(self) -> None:
        super().server_close()
        self.compute_lane.close()


class _ThreadedServer(_LaneClosing, _ServerBase):
    pass


class _SerialServer(_LaneClosing, HTTPServer):
    pass


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[ArtifactStore] = None,
    use_cache: bool = True,
    quiet: bool = False,
    threaded: bool = True,
) -> HTTPServer:
    """A configured (but not yet serving) HTTP server; ``port=0`` binds
    an ephemeral port (read it back from ``server_address[1]``)."""
    cls = _ThreadedServer if threaded else _SerialServer
    srv = cls((host, port), ServiceHTTPHandler)
    srv.compute_lane = ComputeLane()
    srv.artifact_store = store
    srv.use_cache = use_cache and store is not None
    srv.quiet = quiet
    return srv


def serve(
    host: str,
    port: int,
    store: Optional[ArtifactStore],
    use_cache: bool = True,
    max_requests: Optional[int] = None,
    quiet: bool = False,
) -> HTTPServer:
    """Run the service until interrupted (or for ``max_requests``
    requests — handy for smoke tests); returns the closed server."""
    srv = make_server(host, port, store=store, use_cache=use_cache,
                      quiet=quiet)
    try:
        if max_requests is not None:
            for _ in range(max_requests):
                srv.handle_request()
        else:  # pragma: no cover - interactive loop
            srv.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive loop
        pass
    finally:
        srv.server_close()
    return srv
