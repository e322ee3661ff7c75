"""The HTTP face of the service: a stdlib ``ThreadingHTTPServer``.

No web framework — the repo's no-new-dependencies rule extends to the
service layer, and ``http.server`` plus JSON bodies covers everything the
protocol needs.  Routes:

* ``GET  /health``        — liveness, engine fingerprint, queue counts
* ``GET  /metrics``       — process-wide metrics snapshot
  (``?format=prom`` renders the Prometheus text exposition instead)
* ``GET  /metrics/history`` — persisted sampler snapshots
  (``?since=<ts>&limit=<n>``)
* ``GET  /dash``          — the live HTML status dashboard
* ``POST /jobs``          — enqueue a job (``202``; ``200`` when deduped)
* ``GET  /jobs``          — list jobs (``?status=pending`` filters)
* ``GET  /jobs/<id>``     — one job, with its result inlined once done
* ``GET  /jobs/<id>/trace`` — that job's spans from the shared span buffer
* ``POST /jobs/<id>/requeue`` — send a failed job back to the queue
* ``GET  /results/<fp>``  — a result body by content address
* ``POST /rank``          — *synchronous* zero-shot ranking: the cheap,
  comparator-only path answered in-request; duplicate submissions are
  served from the registry with zero new model forwards

Observability: every request runs under a per-request correlation scope
(synchronous work traced in-request answers to its ``req-<n>`` id), each
endpoint's latency lands in a ``http.<method>_<route>.seconds`` quantile
histogram, and the write routes emit ``http`` spans into the span buffer
shared with the daemons.

Every validation failure is a :class:`~repro.service.protocol.ProtocolError`
rendered as its status (4xx) with a JSON ``{"error": ...}`` body; unexpected
executor failures render as 500 with the exception text.  The server is
threading: a long synchronous ``/rank`` cannot block ``/health``.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs import (
    SpanBuffer,
    buffered_tracer,
    correlation_scope,
    default_span_buffer,
    get_tracer,
    global_registry,
    render_dashboard,
    render_prometheus,
    tracer_scope,
)
from .db import RegistryError, ServiceDB, UnknownJobError
from .engine import Engine
from .jobs import execute_job
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_submit,
    request_fingerprint,
)

logger = logging.getLogger(__name__)

_MAX_BODY_BYTES = 64 * 1024 * 1024  # inline series payloads can be large


class RawResponse:
    """A non-JSON response body (Prometheus text, dashboard HTML)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


def _parse_query(query: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in query.split("&"):
        key, _, value = pair.partition("=")
        if key:
            params[key] = value
    return params


def _cache_rates(snapshot: dict[str, dict]) -> dict[str, str]:
    """Hit rates for every ``<name>.hits``/``<name>.misses`` counter pair."""
    rates: dict[str, str] = {}
    for name, snap in snapshot.items():
        if not name.endswith(".hits") or snap.get("kind") != "counter":
            continue
        prefix = name[: -len(".hits")]
        hits = float(snap.get("value") or 0.0)
        misses = float((snapshot.get(prefix + ".misses") or {}).get("value") or 0.0)
        total = hits + misses
        if total > 0:
            rates[prefix] = f"{hits / total:.0%} ({int(hits)}/{int(total)})"
    return rates


class ServiceAPI:
    """The HTTP server bound to one registry and one engine.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after :meth:`start`) — that is what the e2e tests use to boot isolated
    instances in parallel.
    """

    def __init__(
        self,
        db: ServiceDB,
        engine: Engine,
        host: str = "127.0.0.1",
        port: int = 0,
        span_buffer: SpanBuffer | None = None,
    ) -> None:
        self.db = db
        self.engine = engine
        self.host = host
        self._requested_port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        # Shared with the daemons (pass the same buffer to both) so
        # /jobs/<id>/trace sees worker-executed spans, not just API ones.
        self.span_buffer = span_buffer if span_buffer is not None else default_span_buffer()
        self._tracer = buffered_tracer(self.span_buffer, base=get_tracer())
        self._request_ids = itertools.count()
        # Dedup economy only: two identical /rank requests landing together
        # should compute once, not twice (check registry -> execute -> store
        # under one lock).  Thread-safety of ranking itself lives in
        # Engine.rank_task, which serializes every caller — API, daemon, CLI.
        self._rank_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceAPI":
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-api:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    # ------------------------------------------------------------------
    # Route handlers (return (status, body) pairs)
    # ------------------------------------------------------------------
    def handle_health(self) -> tuple[int, dict]:
        return 200, {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "engine": self.engine.fingerprint,
            "jobs": self.db.counts(),
        }

    def handle_metrics(self, params: dict[str, str] | None = None) -> tuple[int, object]:
        snapshot = global_registry().snapshot()
        fmt = (params or {}).get("format", "")
        if fmt == "prom":
            return 200, RawResponse(
                render_prometheus(snapshot), "text/plain; version=0.0.4"
            )
        if fmt and fmt != "json":
            raise ProtocolError(f"unknown metrics format {fmt!r}")
        return 200, {"metrics": snapshot}

    def handle_metrics_history(self, params: dict[str, str]) -> tuple[int, dict]:
        try:
            since = float(params["since"]) if params.get("since") else None
            limit = int(params.get("limit") or 500)
        except ValueError as exc:
            raise ProtocolError(f"bad history query ({exc})") from exc
        if limit <= 0:
            raise ProtocolError(f"limit must be positive, got {limit}")
        return 200, {"history": self.db.metrics_history(since=since, limit=limit)}

    def handle_job_trace(self, job_id: str) -> tuple[int, dict]:
        job = self.db.get_job(job_id)  # 404 via UnknownJobError if absent
        return 200, {
            "job": job["id"],
            "status": job["status"],
            "attempts": job["attempts"],
            "spans": self.span_buffer.records(correlation=job["id"]),
        }

    def handle_dash(self) -> tuple[int, RawResponse]:
        snapshot = global_registry().snapshot()
        now = time.time()
        workers = [
            {
                "owner": job.get("owner") or "?",
                "job": job["id"],
                "age": max(0.0, now - float(job.get("updated") or now)),
            }
            for job in self.db.list_jobs("running")
        ]
        data = {
            "title": f"repro service · {self.host}:{self.port}",
            "jobs": self.db.counts(),
            "workers": workers,
            "metrics": snapshot,
            "cache": _cache_rates(snapshot),
            "traces": self.span_buffer.records(limit=40),
        }
        return 200, RawResponse(render_dashboard(data), "text/html; charset=utf-8")

    def handle_submit(self, payload, tenant: str | None) -> tuple[int, dict]:
        request = parse_submit(payload, tenant=tenant)
        fingerprint = request_fingerprint(request, self.engine.fingerprint)
        job, deduped = self.db.submit_job(
            fingerprint,
            request.kind,
            {
                "task": request.task_spec,
                "options": request.options,
                "runtime": payload.get("runtime") or {},
                "tenant": request.tenant,
            },
            tenant=request.tenant,
        )
        body = {"job": job, "deduped": deduped}
        result = self.db.get_result(fingerprint)
        if result is not None:
            body["result"] = result
        return (200 if deduped else 202), body

    def handle_job(self, job_id: str) -> tuple[int, dict]:
        job = self.db.get_job(job_id)
        body = {"job": job}
        if job["status"] == "done":
            result = self.db.get_result(job["fingerprint"])
            if result is not None:
                body["result"] = result
        return 200, body

    def handle_jobs(self, status: str | None) -> tuple[int, dict]:
        return 200, {"jobs": self.db.list_jobs(status)}

    def handle_requeue(self, job_id: str) -> tuple[int, dict]:
        return 200, {"job": self.db.requeue(job_id)}

    def handle_result(self, fingerprint: str) -> tuple[int, dict]:
        result = self.db.get_result(fingerprint)
        if result is None:
            raise ProtocolError(f"no result for {fingerprint!r}", status=404)
        return 200, {"result": result}

    def handle_rank(self, payload, tenant: str | None) -> tuple[int, dict]:
        """Synchronous zero-shot ranking with registry dedup.

        First submission executes in-request (comparator inference only —
        no forecaster training, so it is fast enough to answer inline) and
        its result is stored content-addressed; every later identical
        submission, from any tenant, is answered from the registry without
        a single model forward.
        """
        if isinstance(payload, dict):
            payload = {**payload, "kind": payload.get("kind", "rank")}
        request = parse_submit(payload, tenant=tenant)
        if request.kind != "rank":
            raise ProtocolError("POST /rank only accepts kind 'rank'")
        fingerprint = request_fingerprint(request, self.engine.fingerprint)
        cached = self.db.get_result(fingerprint)
        if cached is not None:
            return 200, {
                "fingerprint": fingerprint,
                "deduped": True,
                "result": cached,
            }
        with self._rank_lock:
            cached = self.db.get_result(fingerprint)
            if cached is not None:
                return 200, {
                    "fingerprint": fingerprint,
                    "deduped": True,
                    "result": cached,
                }
            result = execute_job(self.engine, request, fingerprint)
            # Stored before the lock is released: an identical request
            # waiting on the lock must find this result on its re-check.
            self.db.put_result(fingerprint, "rank", result.body)
        return 200, {
            "fingerprint": fingerprint,
            "deduped": False,
            "result": result.body,
        }


def _make_handler(service: ServiceAPI):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY: headers and body go out as two writes, and on a
        # keep-alive connection Nagle would hold the body back until the
        # peer's delayed ACK of the headers (~40 ms per response).
        disable_nagle_algorithm = True
        # http.server logs every request to stderr by default; route it
        # through logging so test output stays clean.
        def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
            logger.debug("%s - %s", self.address_string(), fmt % args)

        # --------------------------------------------------------------
        # Plumbing
        # --------------------------------------------------------------
        def _send(self, status: int, body) -> None:
            if isinstance(body, RawResponse):
                data = body.text.encode()
                content_type = body.content_type
            else:
                data = json.dumps(body).encode()
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _read_json(self):
            length = int(self.headers.get("Content-Length") or 0)
            if length > _MAX_BODY_BYTES:
                raise ProtocolError("request body too large", status=413)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                raise ProtocolError("empty request body")
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"invalid JSON body ({exc})") from exc

        def _dispatch(self, method: str) -> None:
            path, _, query = self.path.partition("?")
            parts = [p for p in path.split("/") if p]
            request_id = f"req-{next(service._request_ids)}"
            started = time.perf_counter()
            try:
                # Every request gets a correlation scope, so spans emitted
                # by synchronous in-request work (POST /rank) carry its
                # req-<n> id; the self-observation reads stay span-free.
                with tracer_scope(service._tracer), correlation_scope(request_id):
                    status, body = self._route(method, parts, query)
            except ProtocolError as exc:
                status, body = exc.status, {"error": str(exc)}
            except UnknownJobError as exc:
                status, body = 404, {"error": str(exc)}
            except RegistryError as exc:
                status, body = 500, {"error": str(exc)}
            except Exception as exc:
                logger.exception("unhandled error serving %s %s", method, path)
                status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
            elapsed = time.perf_counter() - started
            registry = global_registry()
            registry.histogram("http.request.seconds").observe(elapsed)
            route = parts[0] if parts else "root"
            registry.histogram(
                f"http.{method.lower()}_{route}.seconds"
            ).observe(elapsed)
            self._send(status, body)

        def _route(self, method: str, parts: list[str], query: str):
            tenant = self.headers.get("X-Repro-Tenant")
            if method == "GET":
                params = _parse_query(query)
                if parts == ["health"]:
                    return service.handle_health()
                if parts == ["metrics"]:
                    return service.handle_metrics(params)
                if parts == ["metrics", "history"]:
                    return service.handle_metrics_history(params)
                if parts == ["dash"]:
                    return service.handle_dash()
                if parts == ["jobs"]:
                    status_filter = params.get("status") or None
                    return service.handle_jobs(status_filter)
                if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                    return service.handle_job_trace(parts[1])
                if len(parts) == 2 and parts[0] == "jobs":
                    return service.handle_job(parts[1])
                if len(parts) == 2 and parts[0] == "results":
                    return service.handle_result(parts[1])
                raise ProtocolError(f"no such route: GET /{'/'.join(parts)}", 404)
            if method == "POST":
                if parts == ["jobs"]:
                    return service.handle_submit(self._read_json(), tenant)
                if parts == ["rank"]:
                    return service.handle_rank(self._read_json(), tenant)
                if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "requeue":
                    return service.handle_requeue(parts[1])
                raise ProtocolError(f"no such route: POST /{'/'.join(parts)}", 404)
            raise ProtocolError(f"method {method} not allowed", 405)

        def do_GET(self):  # noqa: N802
            self._dispatch("GET")

        def do_POST(self):  # noqa: N802
            self._dispatch("POST")

    return Handler
