"""The concurrent lake session: one warm pipeline, many callers.

:class:`LakeService` owns what every previous PR made fast but nothing
shared: a warm :class:`~repro.core.pipeline.Dialite` (hydrated store,
persisted discoverer indexes, zero-rebuild candidate engine) served to
concurrent callers through

* a **worker pool** with bounded admission -- at most ``queue_depth``
  requests in flight; the next one is rejected with
  :class:`ServiceOverloaded` instead of queueing without bound -- and
  optional per-request deadlines (:class:`DeadlineExceeded` for a
  caller that gives up waiting; queued work nobody is waiting for any
  more is skipped when a worker reaches it);
* a **versioned result cache** (:mod:`repro.service.cache`): a handler's
  payload is encoded to canonical JSON bytes exactly once, and those
  bytes are what is memoized under ``(lake_version, canonical request
  key)`` with LRU + TTL eviction, fanned out to every waiter and
  spliced into the reply line, so *any* ingest -- in-process or a
  foreign process detected through the store's cheap
  :meth:`~repro.store.lakestore.LakeStore.current_version` poll --
  invalidates by version, never by enumeration, and a response is
  stamped with the exact lake version that produced it;
* **single-flight**: a request that misses the cache joins the
  in-flight execution of the same ``(lake_version, request key)`` or
  leads a new one, submitted straight to the pool -- identical
  concurrent requests of any cacheable op execute once and fan out,
  distinct ones run side by side, and nobody waits on a window;
* a **hot-swap reload** path: when the on-disk version moves, a new
  *generation* (fresh store handle, fresh warm pipeline) is built and
  swapped in atomically; in-flight requests keep their generation and
  finish on the snapshot they started on, stamped with its version.

Request canonicalization: cache keys are built from *content* -- the
query table's :func:`~repro.store.codec.table_content_hash`, ``k``, the
intent column, the discoverer subset -- and payloads never include the
caller's query-table name (the service renames queries to a
hash-derived name internally), so two callers sending the same cells
share one cache entry and byte-identical payloads.

Thread-safety ground rules (see the audit in
:mod:`repro.candidates.engine`): discovery fans out concurrently on the
shared engine; align/integrate serialize on one internal lock because
the aligner is shared mutable state and an integrator a user registered
through ``add_integrator`` cannot be assumed thread-safe (no built-in
integrator holds state: a Full Disjunction call owns its interner) --
correctness first, and discovery is the hot path a cache cannot already
serve.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..core.pipeline import Dialite
from ..obs import export as obs_export
from ..obs import metrics as obs_metrics
from ..obs import recorder as obs_recorder
from ..obs import slo as obs_slo
from ..obs import trace as tracing
from ..obs.metrics import MetricsRegistry
from ..store.codec import encode_table, table_content_hash
from ..store.lakestore import LakeStore
from ..table.table import Table
from .cache import Flight, ResultCache, encode_payload

__all__ = [
    "LakeService",
    "ServiceResponse",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "DeadlineExceeded",
    "ServiceClosed",
    "oracle_discover_payload",
]


class ServiceError(RuntimeError):
    """Any serving-layer failure that is not a pipeline bug."""


class ServiceOverloaded(ServiceError):
    """Admission rejected: the in-flight request count is at capacity.

    ``retry_after`` is the server's backoff hint in seconds (crossing the
    wire as the error document's ``retry_after`` field); the retrying
    client floors its next delay at it.
    """

    def __init__(self, message: str = "", retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailable(ServiceError):
    """The service could not be reached (connect/read failure, dropped
    connection).  The request may never have arrived, so only idempotent
    operations are safe to retry on it."""


class DeadlineExceeded(ServiceError):
    """The request's deadline lapsed before a result was produced."""


class ServiceClosed(ServiceError):
    """The service has been shut down."""


@dataclass(frozen=True)
class ServiceResponse:
    """One served result, version-stamped.

    ``wire`` is the payload as canonical JSON bytes -- the unit that is
    cached, fanned out to a flight's waiters and written to the socket.
    ``payload`` is the same deterministic document as Python objects,
    for in-process callers: a computed response keeps the dict its
    handler returned, a cache hit decodes ``wire`` on first access (so
    a hit that only goes to the socket never decodes).
    ``lake_version`` is the version of the lake snapshot that produced it
    (the never-stale contract: a response stamped ``v`` is byte-identical
    to what a fresh pipeline opened at ``v`` would return).
    """

    op: str
    lake_version: int
    cached: bool
    wire: bytes
    #: The request's span tree (:meth:`Tracer.to_dict` shape), attached
    #: only when the caller asked for tracing.
    trace: dict[str, Any] | None = field(default=None, compare=False)
    _payload: Any = field(default=None, repr=False, compare=False)

    @property
    def payload(self) -> Any:
        if self._payload is None:
            object.__setattr__(self, "_payload", json.loads(self.wire))
        return self._payload


#: The ``stats`` document's counters, each a ``service.<name>`` counter in
#: the service's private registry.  ``batches`` counts executions that
#: served more than one caller (single-flight) and ``batched_requests`` the
#: callers they served; the names are the document's historical shape.
_COUNTERS = (
    "requests",
    "hits",
    "misses",
    "errors",
    "rejected_overload",
    "rejected_deadline",
    "batches",
    "batched_requests",
    "reloads",
    "ingests",
    "degraded",
)
#: Per-op request latency histograms (ms): ``service.latency.<op>``.
_LATENCY = "service.latency."


@dataclass
class _Generation:
    """One immutable serving snapshot: a warm pipeline over one store
    handle at one lake version.  Swapped atomically on reload; in-flight
    requests keep the generation they started with."""

    pipeline: Dialite
    store: "LakeStore | None"  # the pipeline's backing store, either layout
    version: int


class LakeService:
    """A shared, concurrent serving session over one warm lake.

    Construct from a store (``LakeService(store=path)``) or wrap an
    existing pipeline (``Dialite.open(path).serve()``).  ``request`` is
    the one synchronous entry point; ``discover`` / ``align`` /
    ``integrate`` / ``ingest`` are typed conveniences over it.  Use as a
    context manager (or call :meth:`close`) to stop the worker pool.
    """

    #: The backoff hint attached to :class:`ServiceOverloaded` (seconds);
    #: long enough for a worker slot to turn over on a loaded service.
    overload_retry_after = 0.05

    def __init__(
        self,
        store: "str | Path | LakeStore | None" = None,
        pipeline: Dialite | None = None,
        *,
        workers: int = 4,
        queue_depth: int = 64,
        cache_capacity: int | None = 1024,
        cache_ttl: float | None = None,
        reload_check_interval: float = 0.25,
        default_deadline: float | None = None,
        candidate_budget: int | None = None,
        trace_path: "str | Path | None" = None,
        trace_path_max_bytes: int | None = None,
        trace_path_keep: int = 3,
        postmortem_path: "str | Path | None" = None,
        latency_threshold_ms: float | None = None,
        export_path: "str | Path | None" = None,
        export_interval_s: float = 30.0,
    ):
        if pipeline is None:
            if store is None:
                raise ServiceError("LakeService needs a store or a pipeline")
            if isinstance(store, (str, Path)):
                # Sharded layouts (lake.json) auto-detect; discovery then
                # runs scatter-gather with byte-identical results.
                from ..shard.store import open_any_store

                store = open_any_store(store)
            pipeline = Dialite(store=store, candidate_budget=candidate_budget)
        pipeline.index  # fit lazily: a no-op for an already-fitted pipeline
        backing = pipeline._store
        self._gen = _Generation(
            pipeline=pipeline,
            store=backing,
            version=backing.lake_version if backing is not None else 0,
        )
        self.workers = max(1, workers)
        self.queue_depth = max(1, queue_depth)
        self.reload_check_interval = max(0.0, reload_check_interval)
        self.default_deadline = default_deadline
        #: This service's instruments: the ``stats`` counters (registered
        #: here, so ``metrics`` shows them at zero), the per-op latency
        #: histograms and the cache gauges.
        self.registry = MetricsRegistry()
        for name in _COUNTERS:
            self.registry.counter(f"service.{name}")
        self.cache = ResultCache(cache_capacity, cache_ttl, self.registry)
        #: JSONL trace sink: when set, *every* request is traced and its
        #: span tree appended as one JSON line (offline analysis),
        #: size-rotated at ``trace_path_max_bytes`` keeping
        #: ``trace_path_keep`` backups.
        self._trace_path = Path(trace_path) if trace_path is not None else None
        self._trace_path_max_bytes = trace_path_max_bytes
        self._trace_path_keep = trace_path_keep
        self._trace_lock = threading.Lock()
        #: Flight recorder: always-on request ring; with a
        #: ``postmortem_path`` it dumps tree + ring on every tripped
        #: request (error / deadline / latency threshold / degraded).
        self.recorder = obs_recorder.FlightRecorder(
            postmortem_path=postmortem_path, latency_threshold_ms=latency_threshold_ms
        )
        #: SLO monitor: every finished request feeds it; burn rates
        #: surface through :meth:`health_snapshot`.
        self.slo = obs_slo.SLOMonitor()
        #: The serving epoch: 1 at construction, +1 per hot-swap reload.
        self._epoch = 1
        #: Background exporter (optional): periodic metrics snapshots and
        #: completed span trees to rotating JSONL.
        self._exporter: "obs_export.TelemetryExporter | None" = None
        if export_path is not None:
            self._exporter = obs_export.TelemetryExporter(
                export_path,
                interval_s=export_interval_s,
                identity=obs_export.snapshot_identity("service"),
                registries=[self.metrics_snapshot],
            ).start()

        self._handlers: dict[str, Callable[[_Generation, dict[str, Any]], dict]] = {
            "discover": self._handle_discover,
            "align": self._handle_align,
            "integrate": self._handle_integrate,
        }
        self._closed = False
        self._inflight = 0
        self._admission_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        # Serializes align/integrate: the aligner is shared mutable state
        # and a user-registered integrator may be (the built-in ones hold
        # none); discovery never takes it.
        self._work_lock = threading.Lock()
        self._last_version_check = time.monotonic()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The lake version of the current serving generation."""
        return self._gen.version

    @property
    def pipeline(self) -> Dialite:
        """The current generation's pipeline (a snapshot: reloads swap
        in a new object rather than mutating this one)."""
        return self._gen.pipeline

    @property
    def store_path(self) -> Path | None:
        store = self._gen.store
        return store.path if store is not None else None

    @property
    def inflight(self) -> int:
        return self._inflight

    def stats_snapshot(self) -> dict[str, Any]:
        """The ``stats`` document, read off :attr:`registry`: the
        counters, ``queue_depth`` (requests in flight), per-op latency
        (count, bucket-resolution nearest-rank p50 / p95, exact max),
        then the cache, worker and store-layout facts."""
        snapshot: dict[str, Any] = {
            name: self.registry.counter(f"service.{name}").value for name in _COUNTERS
        }
        snapshot["queue_depth"] = self._inflight
        snapshot["latency"] = {}
        for name, histogram in self.registry.histograms(_LATENCY).items():
            hist = histogram.snapshot()
            snapshot["latency"][name[len(_LATENCY):]] = {
                "count": hist["count"],
                "p50_ms": round(hist["p50"], 3),
                "p95_ms": round(hist["p95"], 3),
                "max_ms": round(hist["max"], 3),
            }
        snapshot["lake_version"] = self.version
        snapshot["cache_entries"] = len(self.cache)
        snapshot["cache_evictions"] = self.cache.evictions
        snapshot["cache_expirations"] = self.cache.expirations
        snapshot["workers"] = self.workers
        if self._gen.store is not None:
            snapshot.update(self._gen.store.layout())
        return snapshot

    def health_snapshot(self) -> dict[str, Any]:
        """Liveness + degradation + SLO burn in one cheap document (the
        ``health`` wire op): status, the serving lake version and epoch,
        per-shard worker liveness (with last-respawn ages) for sharded
        lakes, which shards (if any) the *last* discover had to serve
        without, ``worker_respawns`` (the ``shard.worker.respawns``
        counter: every respawn over the process's lifetime, across
        reloads), and the SLO monitor's firing objectives.

        Status precedence: ``closed`` > ``degraded`` (live shard loss,
        or an SLO objective burning at page rate) > ``warn`` (an
        objective burning at warn rate) > ``ok``.
        """
        index_health = self._gen.pipeline.index.health()
        slo = self.slo.evaluate()
        if self._closed:
            status = "closed"
        elif index_health["degraded_shards"] or slo["status"] == "degraded":
            status = "degraded"
        else:
            status = slo["status"]  # "warn" or "ok"
        return {
            "status": status,
            "lake_version": self.version,
            "lake_epoch": self._epoch,
            "inflight": self._inflight,
            "workers": self.workers,
            **index_health,
            "slo": slo,
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """The full instrument view: this service's private registry
        (counters + latency histograms behind :meth:`stats_snapshot`)
        merged with the process-wide registry (store decode counts,
        engine retrieval/build accounting, FD dispatch tallies).  The
        ``metrics`` wire op serves exactly this document; two of them
        from different processes fold with
        :func:`repro.obs.metrics.merge_snapshots`."""
        self.cache.publish()
        snapshot = obs_metrics.merge_snapshots(
            obs_metrics.global_registry().snapshot(),
            self.registry.snapshot(),
        )
        # Sharded lakes keep per-shard registries inside the worker
        # processes; fold them in so engine retrieval counts
        # stay visible behind one wire op.
        extra = self._gen.pipeline.index.worker_metrics()
        if extra:
            snapshot = obs_metrics.merge_snapshots(snapshot, extra)
        return snapshot

    def _write_trace(self, document: dict[str, Any]) -> None:
        """Append one finished span tree to the JSONL sink (one compact
        JSON object per line; no-op without a ``trace_path``).  The sink
        is size-rotated under the same lock that serializes writers, so
        rotation never tears a line."""
        if self._trace_path is None or not document:
            return
        line = json.dumps(document, separators=(",", ":"), sort_keys=True)
        with self._trace_lock:
            obs_export.rotate_file(
                self._trace_path, self._trace_path_max_bytes, self._trace_path_keep
            )
            with self._trace_path.open("a", encoding="utf-8") as sink:
                sink.write(line + "\n")

    def add_handler(
        self, op: str, handler: Callable[[Any, dict[str, Any]], dict], replace: bool = False
    ) -> None:
        """Register a custom operation: ``handler(generation, params) ->
        payload dict``.  ``generation.pipeline`` is the warm pipeline,
        ``generation.version`` the lake version the response will be
        stamped with.  Custom ops are not cached (no canonical key)."""
        if op in self._handlers and not replace:
            raise ValueError(f"op {op!r} already registered")
        self._handlers[op] = handler

    # ------------------------------------------------------------------
    # The public request path
    # ------------------------------------------------------------------
    def request(
        self,
        op: str,
        params: dict[str, Any] | None = None,
        *,
        deadline: float | None = None,
        trace: bool = False,
        trace_id: str | None = None,
    ) -> ServiceResponse:
        """Serve one request: cache lookup, admission, execution, wait.

        *deadline* is relative seconds (``default_deadline`` when None);
        the caller gets :class:`DeadlineExceeded` if it lapses first.

        *trace* records the request as one span tree (admission ->
        cache -> queue wait -> execution, with every pipeline stage
        nested under it) and attaches it to the response; a request that
        joined another caller's execution shows its wait as
        ``service.flight_wait`` instead.
        *trace_id* adopts a distributed id minted upstream (the wire
        server passes the client's envelope id here) so client, server
        and shard-worker trees correlate.  When the service has a
        ``trace_path`` sink or a flight-recorder postmortem path, every
        request is traced internally; *trace* additionally returns the
        tree to this caller.

        Every finished request -- traced or not -- feeds the flight
        recorder ring and the SLO monitor.
        """
        tracer = (
            tracing.Tracer(trace_id=trace_id)
            if (trace or self._trace_path is not None or self.recorder.wants_trace)
            else None
        )
        started = time.monotonic()
        response: ServiceResponse | None = None
        error: BaseException | None = None
        try:
            if tracer is None:
                response = self._request_inner(op, params, deadline, None, started)
            else:
                with tracing.activate(tracer):
                    with tracer.span(f"service.{op}"):
                        response = self._request_inner(
                            op, params, deadline, tracer, started
                        )
                if trace:
                    response = replace(response, trace=tracer.to_dict())
            return response
        except BaseException as exc:
            error = exc
            raise
        finally:
            latency_ms = (time.monotonic() - started) * 1000.0
            tree = tracer.to_dict() if tracer is not None else None
            if tree:
                self._write_trace(tree)
            self._observe_request(op, latency_ms, response, error, tracer, tree)

    def _observe_request(
        self,
        op: str,
        latency_ms: float,
        response: ServiceResponse | None,
        error: BaseException | None,
        tracer: "tracing.Tracer | None",
        tree: dict[str, Any] | None,
    ) -> None:
        """Feed the telemetry plane with one finished request: the op's
        latency histogram (successes only), the flight-recorder ring
        (postmortem on trip), the SLO windows, and the exporter's trace
        queue.  Never raises -- telemetry must not change a request's
        outcome."""
        try:
            if response is not None:
                self.registry.histogram(f"{_LATENCY}{op}").observe_ms(latency_ms)
            degraded: list = []
            # Degraded payloads are never cached, so only a computed
            # response (which still holds its dict) can carry the field;
            # a hit is not decoded just to look.
            if (
                response is not None
                and not response.cached
                and isinstance(response.payload, dict)
            ):
                degraded = list(response.payload.get("degraded_shards") or ())
            summary = {
                "op": op,
                "ts": time.time(),
                "lake_version": (
                    response.lake_version if response is not None else self.version
                ),
                "latency_ms": round(latency_ms, 3),
                "cached": bool(response.cached) if response is not None else False,
                "degraded_shards": degraded,
                "error": type(error).__name__ if error is not None else None,
                "trace_id": tracer.trace_id if tracer is not None else None,
            }
            self.recorder.observe(summary, tree)
            self.slo.observe(
                ok=error is None, latency_ms=latency_ms, degraded=bool(degraded)
            )
            exporter = self._exporter
            if exporter is not None and tree:
                exporter.offer_trace(tree, summary=summary)
        except Exception:  # noqa: BLE001 - telemetry is strictly best-effort
            pass

    def _request_inner(
        self,
        op: str,
        params: dict[str, Any] | None,
        deadline: float | None,
        tracer: "tracing.Tracer | None",
        started: float,
    ) -> ServiceResponse:
        if self._closed:
            raise ServiceClosed("service is closed")
        if op not in self._handlers:
            raise ServiceError(
                f"unknown op {op!r}; available: {sorted(self._handlers)}"
            )
        params = dict(params or {})
        self.registry.counter("service.requests").inc()
        self.reload_if_stale()

        key = self._request_key(op, params)
        gen = self._gen
        if key is not None:
            with tracing.span("service.cache") as cache_span:
                wire = self.cache.get(gen.version, key)
                cache_span.add(hit=int(wire is not None))
            if wire is not None:
                self.registry.counter("service.hits").inc()
                return ServiceResponse(
                    op=op, lake_version=gen.version, cached=True, wire=wire
                )
        self.registry.counter("service.misses").inc()

        if deadline is None:
            deadline = self.default_deadline
        self._admit()
        flight, leads = self.cache.join_or_lead(gen.version, key)
        timeout = (
            None if deadline is None
            else max(0.0, started + deadline - time.monotonic())
        )
        if leads:
            self._launch(flight, op, params, gen, tracer)
            landed = flight.done.wait(timeout)
        else:
            # A leader's tree carries the execution itself; a follower's
            # shows only that it waited on someone else's.
            with tracing.span("service.flight_wait"):
                landed = flight.done.wait(timeout)
        if not landed:
            # This caller gives up; the flight goes on for the others.
            self.cache.leave(flight)
            self.registry.counter("service.rejected_deadline").inc()
            raise DeadlineExceeded(
                f"{op} deadline of {deadline:.3f}s lapsed before completion"
            )
        if flight.error is not None:
            if not isinstance(flight.error, (DeadlineExceeded, ServiceClosed)):
                self.registry.counter("service.errors").inc()
            raise flight.error
        return flight.outcome

    # Typed conveniences ------------------------------------------------
    def discover(
        self,
        query: Table,
        k: int = 10,
        query_column: str | None = None,
        discoverers: Sequence[str] | None = None,
        deadline: float | None = None,
        trace: bool = False,
        trace_id: str | None = None,
    ) -> ServiceResponse:
        return self.request(
            "discover",
            {
                "query": query,
                "k": k,
                "column": query_column,
                "discoverers": tuple(discoverers) if discoverers else None,
            },
            deadline=deadline,
            trace=trace,
            trace_id=trace_id,
        )

    def align(
        self,
        tables: Sequence[Table],
        deadline: float | None = None,
        trace: bool = False,
        trace_id: str | None = None,
    ) -> ServiceResponse:
        return self.request(
            "align",
            {"tables": list(tables)},
            deadline=deadline,
            trace=trace,
            trace_id=trace_id,
        )

    def integrate(
        self,
        tables: Sequence[Table] | None = None,
        *,
        query: Table | None = None,
        k: int = 10,
        query_column: str | None = None,
        integrator: str | None = None,
        align: bool = True,
        deadline: float | None = None,
        trace: bool = False,
        trace_id: str | None = None,
    ) -> ServiceResponse:
        if (tables is None) == (query is None):
            raise ServiceError("integrate takes either tables or a query")
        return self.request(
            "integrate",
            {
                "tables": list(tables) if tables is not None else None,
                "query": query,
                "k": k,
                "column": query_column,
                "integrator": integrator,
                "align": align,
            },
            deadline=deadline,
            trace=trace,
            trace_id=trace_id,
        )

    # ------------------------------------------------------------------
    # Ingest + reload (the versioned-invalidation path)
    # ------------------------------------------------------------------
    def ingest(self, tables: Sequence[Table] | Mapping[str, Table]) -> dict[str, Any]:
        """Add/replace tables in the backing store and hot-swap to the new
        version.  Runs on a *separate* store handle so the serving
        generation's snapshot stays internally consistent; the swap makes
        the new version visible to the next request, and the versioned
        cache needs no enumeration -- old entries are keyed to the old
        version and age out.
        """
        gen = self._gen
        if gen.store is None:
            raise ServiceError("ingest requires a store-backed service")
        if isinstance(tables, Mapping):
            delta = dict(tables)
        else:
            delta = {t.name: t for t in tables}
        with self._reload_lock:
            writer = self._gen.store.reopen()
            report = writer.ingest(delta, prune=False)
        self.registry.counter("service.ingests").inc()
        self.reload_if_stale(force=True)
        return {
            "added": list(report.added),
            "updated": list(report.updated),
            "unchanged": list(report.unchanged),
            "lake_version": report.lake_version,
        }

    def reload_if_stale(self, force: bool = False) -> bool:
        """Hot-swap to the on-disk version if it moved; returns True when
        a swap happened.  Rate-limited by ``reload_check_interval``
        (bypassed by *force*); never drops in-flight requests -- they
        finish on the generation they started with.

        While one thread rebuilds, other request threads must keep
        serving the *old* generation rather than queue up behind the
        rebuild: the per-request path takes the reload lock
        non-blocking and simply proceeds on its snapshot if a reload is
        already in progress.  Only *force* (the in-process ingest path,
        which needs synchronous visibility of the version it just wrote)
        waits for the lock.
        """
        gen = self._gen
        if gen.store is None:
            return False
        if not force:
            now = time.monotonic()
            if now - self._last_version_check < self.reload_check_interval:
                return False
            self._last_version_check = now
        if gen.store.current_version() == gen.version and not force:
            return False
        if not self._reload_lock.acquire(blocking=force):
            return False  # a reload is in flight; keep serving the old snapshot
        try:
            gen = self._gen
            if gen.store.current_version() == gen.version:
                return False
            with tracing.span("service.reload", from_version=gen.version) as reload_span:
                self._gen = self._build_generation(gen)
                reload_span.add(to_version=self._gen.version)
            self._epoch += 1
            self.registry.counter("service.reloads").inc()
            return True
        finally:
            self._reload_lock.release()

    def _build_generation(self, previous: _Generation) -> _Generation:
        """A fresh warm generation from the store's current on-disk state:
        reopen the store, fit ``clone_unfitted()`` twins of the serving
        roster (the fit hydrates what is still persisted, fits and
        persists the rest, and serves what it fitted)."""
        assert previous.store is not None
        store = previous.store.reopen()
        roster = previous.pipeline.discoverers.components()
        pipeline = Dialite(
            store=store,
            discoverers=[d.clone_unfitted() for d in roster],
            candidate_budget=previous.pipeline.candidate_budget,
        )
        # Carry forward the (lake-independent) registries and aligner so
        # custom integrators/apps survive a reload; align/integrate are
        # serialized by the work lock, so sharing the instances is safe
        # (and the built-in integrators keep nothing between calls, so a
        # generation inherits no state from the one before it).
        pipeline.integrators = previous.pipeline.integrators
        pipeline.default_integrator = previous.pipeline.default_integrator
        pipeline.apps = previous.pipeline.apps
        pipeline.aligner = previous.pipeline.aligner
        # The serving index donates what did not move (on a sharded lake:
        # hydrated indexes or warm worker pools of every unchanged shard,
        # so a one-table ingest refits exactly one shard, where it lives).
        pipeline.fit(previous_index=previous.pipeline.index)
        return _Generation(pipeline=pipeline, store=store, version=store.lake_version)

    # ------------------------------------------------------------------
    # Admission + single-flight execution
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        with self._admission_lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            if self._inflight >= self.queue_depth:
                self.registry.counter("service.rejected_overload").inc()
                raise ServiceOverloaded(
                    f"{self._inflight} requests in flight (queue depth "
                    f"{self.queue_depth}); retry later",
                    retry_after=self.overload_retry_after,
                )
            self._inflight += 1

    def _launch(
        self,
        flight: Flight,
        op: str,
        params: dict[str, Any],
        gen: _Generation,
        tracer: "tracing.Tracer | None",
    ) -> None:
        """Hand a led flight to the pool, pinned to the generation its
        leader saw.  :meth:`close` cancels what is still queued, and a
        submit can lose the race with it outright; either way the flight
        lands as :class:`ServiceClosed` rather than leave a waiter hung."""

        def refuse_if_cancelled(future: Any) -> None:
            if future.cancelled():
                self._land(flight, error=ServiceClosed("service closed"))

        try:
            future = self._executor.submit(
                self._run_flight, flight, op, params, gen, tracer, time.monotonic()
            )
        except RuntimeError:  # the pool shut down after this request was admitted
            self._land(flight, error=ServiceClosed("service closed"))
        else:
            future.add_done_callback(refuse_if_cancelled)

    def _land(
        self,
        flight: Flight,
        response: ServiceResponse | None = None,
        error: BaseException | None = None,
        wire: bytes | None = None,
    ) -> int:
        """Settle a flight for every caller it carried (caching *wire*)
        and give their admission slots back -- also those of callers who
        stopped waiting: a slot is held until the work it queued is
        dealt with.  Each flight lands exactly once."""
        carried = self.cache.land(flight, response, error, wire)
        with self._admission_lock:
            self._inflight -= carried
        return carried

    def _run_flight(
        self,
        flight: Flight,
        op: str,
        params: dict[str, Any],
        gen: _Generation,
        tracer: "tracing.Tracer | None",
        enqueued_at: float,
    ) -> None:
        if self.cache.abandoned(flight):
            # Every caller's deadline lapsed while this was queued.
            self._land(flight, error=DeadlineExceeded("deadline lapsed while queued"))
            return
        response = error = wire = None
        try:
            if tracer is None:
                response, wire = self._execute(flight, op, params, gen)
            else:
                # Re-join the leader's trace: thread-local ambience does
                # not cross the pool, so the worker re-activates the
                # request's tracer anchored at its root.  The execute
                # span must close *before* landing wakes the caller --
                # the caller serializes the tree as soon as wait()
                # returns.
                with tracing.activate(tracer, parent=tracer.root):
                    tracer.record(
                        "service.queue_wait", wall_s=time.monotonic() - enqueued_at
                    )
                    with tracer.span("service.execute"):
                        response, wire = self._execute(flight, op, params, gen)
        except Exception as exc:  # noqa: BLE001 - error becomes every waiter's response
            error = exc
        carried = self._land(flight, response, error, wire)
        if carried > 1:
            self.registry.counter("service.batches").inc()
            self.registry.counter("service.batched_requests").inc(carried)

    def _execute(
        self, flight: Flight, op: str, params: dict[str, Any], gen: _Generation
    ) -> tuple[ServiceResponse, bytes | None]:
        """Run the handler and encode its payload -- once: these bytes
        are what the cache keeps and what every waiter's reply line
        carries.  Returns the response and the bytes to cache: None for
        a degraded payload (shards lost past the supervised retry), which
        is served -- annotated -- but a later request must get a complete
        answer once the shard recovers, and the cache is keyed by version
        only, which a shard death does not move."""
        if flight.slot is not None:
            # A twin flight may have landed between the leader's lookup
            # and its claim on the in-flight table.
            wire = self.cache.get(*flight.slot)
            if wire is not None:
                return (
                    ServiceResponse(
                        op=op, lake_version=gen.version, cached=True, wire=wire
                    ),
                    None,
                )
        payload = self._handlers[op](gen, params)
        degraded = isinstance(payload, dict) and payload.get("degraded_shards")
        if degraded:
            self.registry.counter("service.degraded").inc()
        wire = encode_payload(payload)
        response = ServiceResponse(
            op=op, lake_version=gen.version, cached=False, wire=wire, _payload=payload
        )
        return response, (None if degraded else wire)

    # ------------------------------------------------------------------
    # Canonical keys + built-in handlers
    # ------------------------------------------------------------------
    def _request_key(self, op: str, params: dict[str, Any]) -> tuple | None:
        """The canonical cache key of one request (None = uncacheable).

        Keys are content-derived: the query table's content hash (name
        excluded -- two callers sending the same cells share an entry),
        plus every option that changes the result.
        """
        if op == "discover":
            names = params.get("discoverers")
            return (
                "discover",
                table_content_hash(params["query"]),
                params.get("k", 10),
                params.get("column"),
                # Normalized so the generic request() path may pass a
                # list (tuples hash, lists don't).
                tuple(names) if names else None,
            )
        if op == "align":
            return (
                "align",
                tuple(
                    (t.name, table_content_hash(t)) for t in params["tables"]
                ),
            )
        if op == "integrate":
            if params.get("tables") is not None:
                subject: tuple = (
                    "tables",
                    tuple(
                        (t.name, table_content_hash(t))
                        for t in params["tables"]
                    ),
                )
            else:
                subject = (
                    "query",
                    table_content_hash(params["query"]),
                    params.get("k", 10),
                    params.get("column"),
                )
            return ("integrate", subject, params.get("integrator"), params.get("align", True))
        return None

    @staticmethod
    def _service_query(query: Table) -> Table:
        """The query under its canonical service name (hash-derived, so
        identical content gets an identical -- and lake-collision-free --
        name)."""
        return query.with_name(f"q-{table_content_hash(query)[:16]}")

    def _handle_discover(self, gen: _Generation, params: dict[str, Any]) -> dict:
        outcome = gen.pipeline.discover(
            self._service_query(params["query"]),
            k=params.get("k", 10),
            query_column=params.get("column"),
            discoverer_names=params.get("discoverers"),
        )
        return _discover_payload(outcome)

    def _handle_align(self, gen: _Generation, params: dict[str, Any]) -> dict:
        with self._work_lock:
            alignment = gen.pipeline.align(params["tables"])
        assignments = {
            f"{ref.table}.{ref.column}": integration_id
            for ref, integration_id in alignment.assignments.items()
        }
        return {
            "assignments": dict(sorted(assignments.items())),
            "num_ids": alignment.num_ids,
        }

    def _handle_integrate(self, gen: _Generation, params: dict[str, Any]) -> dict:
        integrator = params.get("integrator")
        do_align = params.get("align", True)
        if params.get("tables") is not None:
            with self._work_lock:
                result = gen.pipeline.integrate(
                    params["tables"], integrator=integrator, align=do_align
                )
            integration_set = [t.name for t in params["tables"]]
        else:
            outcome = gen.pipeline.discover(
                self._service_query(params["query"]),
                k=params.get("k", 10),
                query_column=params.get("column"),
            )
            with self._work_lock:
                result = gen.pipeline.integrate(
                    outcome, integrator=integrator, align=do_align
                )
            integration_set = outcome.discovered_names
        display = result.to_display_table()
        return {
            "integration_set": integration_set,
            "table": _table_payload(display),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting work, finish what is running, stop the pool."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        # Running flights finish; queued ones land as ServiceClosed.
        self._executor.shutdown(wait=True, cancel_futures=True)
        # Stop the exporter *after* the pool drains so its final flush
        # sees the last requests' metrics and queued traces.
        if self._exporter is not None:
            try:
                self._exporter.close()
            except Exception:  # noqa: BLE001 - shutdown must not raise
                pass
        # The index may own worker process leases; release them once
        # nothing can dispatch.
        try:
            self._gen.pipeline.index.close()
        except Exception:  # noqa: BLE001 - shutdown must not raise
            pass

    def __enter__(self) -> "LakeService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self._inflight} in flight"
        return (
            f"LakeService(v{self.version}, {self.workers} workers, "
            f"{len(self.cache)} cached, {state})"
        )


def oracle_discover_payload(
    pipeline: Dialite,
    query: Table,
    k: int = 10,
    query_column: str | None = None,
    discoverers: Sequence[str] | None = None,
) -> dict[str, Any]:
    """What a service over *pipeline* would serve for this request --
    the byte-identical sequential baseline the service benchmark and the
    concurrency stress tests compare cached/shared responses against.
    Applies the same canonicalization (hash-derived query name, name-free
    payload) as the serving path."""
    outcome = pipeline.discover(
        LakeService._service_query(query),
        k=k,
        query_column=query_column,
        discoverer_names=list(discoverers) if discoverers else None,
    )
    return _discover_payload(outcome)


def _discover_payload(outcome) -> dict[str, Any]:
    """The deterministic, name-free discover response document.

    ``degraded_shards`` appears *only* when non-empty, so healthy
    payloads stay byte-identical to every pre-fault-tolerance response
    (and to the oracle the chaos harness compares against)."""
    document: dict[str, Any] = {
        "results": [
            {
                "table": r.table_name,
                "score": round(r.score, 9),
                "discoverer": r.discoverer,
                "reason": r.reason,
            }
            for r in outcome.merged
        ],
        "integration_set": outcome.discovered_names,
    }
    degraded = tuple(getattr(outcome, "degraded_shards", ()) or ())
    if degraded:
        document["degraded_shards"] = list(degraded)
    return document


# Response payloads carry tables in the same canonical document shape the
# wire protocol uses -- one definition, in the store codec.
_table_payload = encode_table
