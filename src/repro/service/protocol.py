"""The service's wire surface: newline-delimited JSON over TCP, stdlib only.

One request per line, one response per line::

    -> {"op": "discover", "query": {...table...}, "k": 5, "column": "City"}
    <- {"ok": true, "op": "discover", "lake_version": 3, "cached": false,
        "payload": {"results": [...], "integration_set": [...]}}

Tables cross the wire as ``{"name", "columns", "rows"}`` documents using
the store codec's cell encoding (:func:`repro.store.codec.encode_cell`),
so the paper's two null kinds survive the round trip.  Failures come back
as ``{"ok": false, "kind": "ServiceOverloaded", "error": "..."}`` and
:class:`ServiceClient` re-raises them under their service exception type.

The server never re-encodes a payload: the service hands back the
payload's canonical JSON bytes (encoded once when it was computed, and
what the result cache holds), and the reply line is those bytes spliced
between an envelope prefix and suffix.  Every encode the server does
runs inside the handler's ``try``, so a document that is not
JSON-serialisable comes back as a typed error line too.

:class:`LakeServer` wraps a :class:`~repro.service.service.LakeService`
in a ``ThreadingTCPServer`` (connection threads feed the service's own
admission and worker pool -- the socket layer adds no second
concurrency policy) and, for store-backed services, writes a
``service.json`` **beacon** into the store directory while it is up:
``repro index info`` pings it to report whether a live service currently
holds the lake and at which version.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..faults import inject
from ..faults.retry import RetryPolicy
from ..obs import export as obs_export
from ..obs import trace as tracing
from ..store.codec import decode_table, encode_table
from ..table.table import Table
from .cache import encode_payload
from .service import (
    DeadlineExceeded,
    LakeService,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceResponse,
    ServiceUnavailable,
)

__all__ = [
    "LakeServer",
    "ServiceClient",
    "encode_table",
    "decode_table",
    "parse_address",
    "read_beacon",
]

_HANDLE = inject.point("server.handle")
_CONNECT = inject.point("client.connect")

BEACON_FILE = "service.json"

_ERROR_TYPES = {
    "ServiceOverloaded": ServiceOverloaded,
    "ServiceUnavailable": ServiceUnavailable,
    "DeadlineExceeded": DeadlineExceeded,
    "ServiceClosed": ServiceClosed,
}

#: Wire ops the client never retries: a dropped connection leaves it
#: unknown whether the server applied the write, and replaying an ingest
#: against a moved lake version is not idempotent.
_NO_RETRY_OPS = frozenset({"ingest"})


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` (or ``":port"`` for localhost) -> ``(host, port)``."""
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise ValueError(f"service address must be host:port, got {address!r}")
    return (host or "127.0.0.1", int(port))


def read_beacon(store_path: str | Path) -> dict[str, Any] | None:
    """The ``service.json`` beacon of a store directory, if present."""
    beacon = Path(store_path) / BEACON_FILE
    try:
        return json.loads(beacon.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _service_line(response: ServiceResponse) -> bytes:
    """The reply line of a served discover / align / integrate: the
    envelope spliced around the payload bytes the service already holds
    (a cache hit costs no encoder); only a traced reply encodes its
    span tree."""
    tail = b"}\n"
    if response.trace is not None:
        tail = b"," + encode_payload({"trace": response.trace})[1:] + b"\n"
    # The three served op names need no JSON escaping.
    head = b'{"ok":true,"op":"%s","lake_version":%d,"cached":%s,"payload":' % (
        response.op.encode("ascii"),
        response.lake_version,
        b"true" if response.cached else b"false",
    )
    return b"".join((head, response.wire, tail))


def _line(document: dict[str, Any]) -> bytes:
    return encode_payload(document) + b"\n"


class _Handler(socketserver.StreamRequestHandler):
    """One connection: serve requests line by line until EOF."""

    server: "LakeServer"

    def handle(self) -> None:
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            shutdown = False
            try:
                _HANDLE.fire()
                request = json.loads(line)
                reply = self.server.dispatch(request)
                shutdown = request.get("op") == "shutdown"
            except Exception as error:  # noqa: BLE001 - becomes the response
                document = {
                    "ok": False,
                    "kind": type(error).__name__,
                    "error": str(error),
                }
                retry_after = getattr(error, "retry_after", None)
                if retry_after is not None:
                    document["retry_after"] = retry_after
                reply = _line(document)
            self.wfile.write(reply)
            self.wfile.flush()
            if shutdown:
                # Shutdown must come from another thread: serve_forever
                # only exits between polls, and this handler runs inside
                # one of its connection threads.  close() is idempotent,
                # so the CLI's own finally-close is harmless after this.
                threading.Thread(target=self.server.close, daemon=True).start()
                return


class LakeServer(socketserver.ThreadingTCPServer):
    """The service behind a TCP front end (see the module docstring)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: LakeService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._beacon_path: Path | None = None
        self._serving = False
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port resolved when 0 was asked)."""
        return self.socket.getsockname()[:2]

    # ------------------------------------------------------------------
    # Request dispatch (the op -> service mapping)
    # ------------------------------------------------------------------
    def dispatch(self, request: dict[str, Any]) -> bytes:
        """One request document in, its reply line (newline included)
        out; raises for anything that must become an error line."""
        op = request.get("op")
        if op in ("discover", "align", "integrate"):
            return _service_line(self._serve(op, request))
        return _line(self._admin(op, request))

    def _admin(self, op: Any, request: dict[str, Any]) -> dict[str, Any]:
        if op == "ping":
            return {"ok": True, "op": "ping", "payload": {"pong": True}}
        if op == "version":
            return {
                "ok": True,
                "op": "version",
                "lake_version": self.service.version,
                "payload": {"lake_version": self.service.version},
            }
        if op == "health":
            return {
                "ok": True,
                "op": "health",
                "lake_version": self.service.version,
                "payload": self.service.health_snapshot(),
            }
        if op == "stats":
            return {
                "ok": True,
                "op": "stats",
                "lake_version": self.service.version,
                "payload": self.service.stats_snapshot(),
            }
        if op == "metrics":
            return {
                "ok": True,
                "op": "metrics",
                "lake_version": self.service.version,
                "payload": self.service.metrics_snapshot(),
            }
        if op == "metrics_text":
            # The same merged snapshot as ``metrics``, rendered in the
            # Prometheus text exposition format (scrape adapters, the
            # `repro obs export` CLI).
            return {
                "ok": True,
                "op": "metrics_text",
                "lake_version": self.service.version,
                "payload": {
                    "text": obs_export.prometheus_text(
                        self.service.metrics_snapshot()
                    )
                },
            }
        if op == "shutdown":
            return {"ok": True, "op": "shutdown", "shutdown": True, "payload": {}}
        if op == "ingest":
            report = self.service.ingest(
                [decode_table(doc) for doc in request["tables"]]
            )
            return {
                "ok": True,
                "op": "ingest",
                "lake_version": self.service.version,
                "payload": report,
            }
        raise ServiceError(f"unknown wire op {op!r}")

    def _serve(self, op: str, request: dict[str, Any]) -> ServiceResponse:
        deadline = request.get("deadline")
        trace = bool(request.get("trace", False))
        # Adopt the client's distributed trace id: the service's
        # ``service.<op>`` tree is stamped with it, so the client can
        # graft the returned tree under its own root span.
        trace_id = request.get("trace_id")
        if op == "discover":
            return self.service.discover(
                decode_table(request["query"]),
                k=request.get("k", 10),
                query_column=request.get("column"),
                discoverers=request.get("discoverers"),
                deadline=deadline,
                trace=trace,
                trace_id=trace_id,
            )
        if op == "align":
            return self.service.align(
                [decode_table(doc) for doc in request["tables"]],
                deadline=deadline,
                trace=trace,
                trace_id=trace_id,
            )
        tables = request.get("tables")
        query = request.get("query")
        return self.service.integrate(
            tables=[decode_table(doc) for doc in tables] if tables else None,
            query=decode_table(query) if query else None,
            k=request.get("k", 10),
            query_column=request.get("column"),
            integrator=request.get("integrator"),
            align=request.get("align", True),
            deadline=deadline,
            trace=trace,
            trace_id=trace_id,
        )

    # ------------------------------------------------------------------
    # Lifecycle + beacon
    # ------------------------------------------------------------------
    def write_beacon(self) -> None:
        """Advertise this server in the store directory (best effort)."""
        store_path = self.service.store_path
        if store_path is None:
            return
        host, port = self.address
        beacon = store_path / BEACON_FILE
        temp = beacon.with_name(beacon.name + ".tmp")
        temp.write_text(
            json.dumps({"host": host, "port": port, "pid": os.getpid()}),
            encoding="utf-8",
        )
        temp.replace(beacon)
        self._beacon_path = beacon

    def remove_beacon(self) -> None:
        # The shutdown op's closer thread and run()'s finally both get
        # here; whoever comes second must find nothing to do.
        beacon, self._beacon_path = self._beacon_path, None
        if beacon is not None:
            beacon.unlink(missing_ok=True)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        super().serve_forever(poll_interval)

    def start(self) -> threading.Thread:
        """Serve in a background thread (returns it); beacon written."""
        self.write_beacon()
        # Marked serving *before* the thread launches so a close() racing
        # the thread's serve_forever entry still shuts it down (shutdown
        # blocks until the loop runs and observes the request).
        self._serving = True
        thread = threading.Thread(
            target=self.serve_forever, name="repro-lake-server", daemon=True
        )
        thread.start()
        return thread

    def run(self) -> None:
        """Serve in the calling thread until shutdown (the CLI path)."""
        self.write_beacon()
        try:
            self.serve_forever()
        finally:
            self.close()

    def close(self) -> None:
        """Stop serving, close the socket, drop the beacon, stop the
        service's worker pool.  Idempotent, and safe on a server whose
        ``serve_forever`` never ran (``shutdown`` would otherwise wait
        forever on an event only the serve loop sets)."""
        if self._serving:
            self._serving = False
            self.shutdown()
        self.server_close()
        self.remove_beacon()
        self.service.close()


class ServiceClient:
    """A small synchronous client: one connection per call, with retries.

    Raises the service's own exception types for wire failures
    (:class:`ServiceOverloaded`, :class:`DeadlineExceeded`, ...), so
    callers handle local and remote services identically.  Connect and
    read failures surface as :class:`ServiceUnavailable`.

    Transient failures -- connection errors (:class:`ServiceUnavailable`)
    and admission rejections (:class:`ServiceOverloaded`) -- are retried
    with bounded exponential backoff + jitter (*retry*, a
    :class:`~repro.faults.retry.RetryPolicy`; pass ``None`` to disable).
    An overload response's ``retry_after`` hint floors the next delay.
    ``ingest`` is **never** retried: a dropped connection leaves the
    write's fate unknown, and replaying it is not idempotent.
    """

    def __init__(
        self,
        address: "str | tuple[str, int]",
        timeout: float = 30.0,
        connect_timeout: float | None = None,
        retry: RetryPolicy | None = RetryPolicy(),
    ):
        if isinstance(address, str):
            address = parse_address(address)
        self.host, self.port = address
        #: Read timeout: the longest one request may take end to end
        #: (kept under its historical name for call-site compatibility).
        self.timeout = timeout
        #: Connect timeout: reaching a dead host should fail fast even
        #: when the read timeout is generous.
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else min(timeout, 5.0)
        )
        self.retry = retry

    def call(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one request document; return the response document.

        A traced call (``trace=True`` in *params*) mints the distributed
        trace id here -- the client is the furthest-upstream party --
        ships it in the envelope, and grafts the server's returned tree
        under its own ``client.<op>`` root, so the response's ``trace``
        is ONE tree: client connect/serialize/wait, server admission/
        queue/execute, and (for sharded lakes) every shard worker.
        """
        request = {"op": op, **{k: v for k, v in params.items() if v is not None}}
        if not request.get("trace"):
            return self._call_with_retry(op, request)
        tracer = tracing.Tracer()
        request["trace_id"] = tracer.trace_id
        with tracing.activate(tracer):
            with tracer.span(f"client.{op}"):
                response = self._call_with_retry(op, request)
        server_tree = response.get("trace")
        if server_tree:
            tracer.attach_tree(server_tree, parent=tracer.root)
        response["trace"] = tracer.to_dict()
        return response

    def _call_with_retry(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        attempts = self.retry.attempts if self.retry is not None else 1
        if op in _NO_RETRY_OPS:
            attempts = 1
        for attempt in range(attempts):
            try:
                return self._call_once(request)
            except (ServiceUnavailable, ServiceOverloaded) as error:
                if attempt + 1 >= attempts:
                    raise
                assert self.retry is not None
                time.sleep(
                    self.retry.delay(
                        attempt, floor=getattr(error, "retry_after", None)
                    )
                )
        raise AssertionError("unreachable")  # pragma: no cover

    def _call_once(self, request: dict[str, Any]) -> dict[str, Any]:
        """One connection, one request, one response line."""
        try:
            _CONNECT.fire()
            with tracing.span("client.connect"):
                conn = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
            with conn:
                conn.settimeout(self.timeout)
                with tracing.span("client.serialize") as serialize_span:
                    data = (
                        json.dumps(
                            request, ensure_ascii=False, separators=(",", ":")
                        ).encode("utf-8")
                        + b"\n"
                    )
                    serialize_span.add(bytes=len(data))
                    conn.sendall(data)
                with tracing.span("client.wait"):
                    with conn.makefile("rb") as reader:
                        line = reader.readline()
        except OSError as error:  # ConnectionError, timeout, refused, ...
            raise ServiceUnavailable(
                f"service at {self.host}:{self.port} unreachable: {error}"
            ) from error
        if not line:
            raise ServiceUnavailable(
                f"service at {self.host}:{self.port} closed the connection"
            )
        response = json.loads(line)
        if not response.get("ok"):
            error_type = _ERROR_TYPES.get(response.get("kind"), ServiceError)
            error = error_type(response.get("error", "service error"))
            if response.get("retry_after") is not None:
                error.retry_after = response["retry_after"]
            raise error
        return response

    # Typed conveniences ------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self.call("health")["payload"]

    def ping(self) -> bool:
        return bool(self.call("ping")["payload"]["pong"])

    def version(self) -> int:
        return int(self.call("version")["payload"]["lake_version"])

    def stats(self) -> dict[str, Any]:
        return self.call("stats")["payload"]

    def metrics(self) -> dict[str, Any]:
        return self.call("metrics")["payload"]

    def metrics_text(self) -> str:
        """The merged metrics snapshot in Prometheus text format."""
        return self.call("metrics_text")["payload"]["text"]

    def discover(
        self,
        query: Table,
        k: int = 10,
        column: str | None = None,
        discoverers: Sequence[str] | None = None,
        deadline: float | None = None,
        trace: bool = False,
    ) -> dict[str, Any]:
        return self.call(
            "discover",
            query=encode_table(query),
            k=k,
            column=column,
            discoverers=list(discoverers) if discoverers else None,
            deadline=deadline,
            trace=True if trace else None,
        )

    def align(
        self,
        tables: Iterable[Table],
        deadline: float | None = None,
        trace: bool = False,
    ) -> dict[str, Any]:
        return self.call(
            "align",
            tables=[encode_table(t) for t in tables],
            deadline=deadline,
            trace=True if trace else None,
        )

    def integrate(
        self,
        tables: Iterable[Table] | None = None,
        query: Table | None = None,
        k: int = 10,
        column: str | None = None,
        integrator: str | None = None,
        align: bool = True,
        deadline: float | None = None,
        trace: bool = False,
    ) -> dict[str, Any]:
        return self.call(
            "integrate",
            tables=[encode_table(t) for t in tables] if tables else None,
            query=encode_table(query) if query is not None else None,
            k=k,
            column=column,
            integrator=integrator,
            align=align,
            deadline=deadline,
            trace=True if trace else None,
        )

    def ingest(self, tables: Iterable[Table]) -> dict[str, Any]:
        return self.call("ingest", tables=[encode_table(t) for t in tables])["payload"]

    def shutdown(self) -> None:
        self.call("shutdown")

    def __repr__(self) -> str:
        return f"ServiceClient({self.host}:{self.port})"
