"""Scatter-gather discovery over a sharded lake.

:class:`ShardedLakeIndex` is the sharded twin of
:class:`~repro.datalake.indexer.LakeIndex`: one candidate engine +
fitted discoverer roster *per shard* (persisted per-shard and
version-pinned exactly like the single store), a scatter phase that fans
a profiled-once query out across the shards, and a reducer that merges
the per-shard answers into the exact result the single-store pipeline
would produce -- byte-identical top-k, pinned by
``tests/property/test_shard_equivalence.py``.

Two ingredients make the reduction exact rather than approximate:

**Lake-global fit state.**  A discoverer may declare a product of the
whole lake (:meth:`Discoverer.lake_product
<repro.discovery.base.Discoverer.lake_product>`: SANTOS's synthesized
KB, TUS's corpus IDF), so a naive per-shard fit would score with
shard-local statistics.  :meth:`build` asks every roster member for its
product once, over the *combined* lake's stats, and persists the ones
that exist at the lake root (``global_fit.pkl``, stamped with the epoch
they were computed at); each shard's fit is handed them through
:meth:`Discoverer.adopt <repro.discovery.base.Discoverer.adopt>` (see
:func:`repro.shard.worker.adapted_roster`).  No discoverer is known
here by name.  A partial refit after a single-shard ingest
deliberately *reuses* the pinned products so all shards stay mutually
consistent (the documented drift caveat: rebuild to refresh corpus
statistics).

**One retrieval judgement.**  Whether a discoverer's retrieval falls
back to the whole lake or is cut to its budget is decided by
:func:`~repro.candidates.spec.judge`, the function every shard's own
engine calls; the reducer calls it once more over the whole lake -- the
shards' summed retrieved counts (shards are disjoint) and, under a
budget, the union of their rankings -- so its report is the one the
unsharded engine records.  A shard scores its candidates before any
floor (round one); when the whole lake's count is under the floor, a
second scatter runs each shard's plain search, which falls back on the
shard too.  See :mod:`repro.shard.worker` for the per-shard half and
the full byte-identity argument.

**One executor.**  Every shard, at every shard count, is served by its
own single-worker process pool -- one process for the life of the
service, not for the life of one lake version.  Its initializer runs
:func:`repro.shard.worker.open_shard_index` once (hydrate, fit the rest,
persist what was fitted); after an ingest the worker of the shard that
moved runs it again, in place, for the new version (hydrating only what
moved) and keeps one warm index per version a generation still serves.
Every scatter task names the version of the generation that sent it and
is answered from exactly that index, never the newest.  The driver is a
router: it never decodes a segment or fits an index, and hydrates stats
snapshots only to compute a missing lake-global fit state.  Otherwise it
has the workers of stale or moved shards open its version (at once: they
fit in parallel) and waits for each to report ready.  Pools are wrapped
in leases refcounted per version, so a service reload takes over every
shard's warm worker and the last generation to leave a version has the
worker drop it.  (A lake that wants no worker processes is the plain
store: one process, one :class:`~repro.datalake.indexer.LakeIndex`.)

**Supervision** covers what can happen *to* a worker, never what a
worker's task raises: a scatter that loses a worker -- the process died
(``BrokenProcessPool``), blew the per-scatter deadline
(``scatter_timeout``) or its pool refused the submit -- respawns that
shard's pool and retries the failed shards once.  A shard that fails its
retry too is dropped from the merge and reported in
:attr:`last_degraded_shards`: the query returns the surviving shards'
answer, explicitly *degraded* rather than failed (the serving layer
annotates the payload and skips its result cache).  Only when every
shard fails does the search raise.  An exception raised *by* a task (an
unknown query column, say) reaches the caller unchanged, as it would
from a plain :class:`~repro.datalake.indexer.LakeIndex`.  Respawns and
degraded scatters are counted in ``repro.obs`` metrics, and only there
(``shard.worker.respawns``, ``shard.scatter.degraded``):
:attr:`worker_respawns` and ``health()`` read the respawn counter, so it
counts over the process's lifetime, across reloads.  A shard's time is
read off the root of the span tree its worker ships back with every
answer (``wall_ms`` for the scatter skew, ``cpu_ms`` for a critical
path).  The wait for a fitting worker is supervised the same way (see
``_fit_in_workers``).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Any, Sequence

from ..candidates.spec import RetrievalReport, judge, rank
from ..datalake.indexer import LastSearch
from ..discovery.base import Discoverer, DiscoveryResult, merge_result_sets
from ..faults import inject
from ..obs import metrics, trace
from ..store.codec import encode_table
from ..store.lakestore import StoreError
from ..table.table import Table
from . import worker as shard_worker
from .store import ShardedLakeStore

__all__ = ["ShardedLakeIndex"]

#: The fault plane is process-local, so an armed worker kill is consumed
#: here, at submit time, and honored by the worker it is shipped to.
_SCATTER_KILL = inject.point("shard.scatter.kill")

#: Buckets for the scatter skew ratio (slowest shard / mean shard wall).
_SKEW_BOUNDS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0)

#: A worker that fits gets this many scatter deadlines to report ready.
_FIT_DEADLINES = 10


def _mp_context():
    """Fork when the platform has it (workers inherit the warm import
    state); the default start method otherwise."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class _PoolLease:
    """A shard's single-worker process pool, for the life of the service:
    refcounted per lake version by the generations that serve from it.

    A service reload builds a new :class:`ShardedLakeIndex` that takes
    over every shard's lease (:meth:`acquire`) instead of respawning --
    the warm worker (hydrated stats snapshots, unpickled discoverer
    indexes) survives the generation swap, and a shard whose version
    moved is re-opened inside it.  The last :meth:`release` of a version
    has the worker drop that version's index (told ahead of the next
    task); the last release of the lease shuts the pool down and waits
    for its idle worker to exit (an interpreter exit racing a
    still-running executor manager thread prints ``Bad file descriptor``
    noise on stderr) -- unless supervision released the lease as
    *failed*: a dead or hung worker is never waited on.  The worker
    process starts on the first :meth:`submit`.
    """

    def __init__(self, shard_path: str, version: int, *worker_args: Any):
        self.path = str(shard_path)
        self._owner = os.getpid()
        self._refs = {version: 1}
        # Versions the worker may let go, told on the next submit.
        self._dropped: deque[int] = deque()
        self._failed = False
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=1,
            mp_context=_mp_context(),
            initializer=shard_worker.process_worker_init,
            # The version pin makes respawns safe under concurrent
            # ingests: a worker spawned while the shard's on-disk state
            # has already moved past this lease's generation exits
            # cleanly instead of opening -- and answering from -- a
            # version its driver is not serving.
            initargs=(self.path, version, *worker_args),
        )

    def acquire(self, version: int) -> bool:
        """Take a reference on *version*; False when no generation held
        it, so the caller has to have the worker open it."""
        with self._lock:
            if self._pool is None:
                raise RuntimeError(f"pool lease for {self.path} already shut down")
            held = self._refs.get(version, 0)
            self._refs[version] = held + 1
        return held > 0

    def release(self, version: int, failed: bool = False) -> None:
        if os.getpid() != self._owner:
            # A worker forked while a retired generation was garbage
            # finalizes its inherited copy: the pool is not its to touch
            # (and the pool's lock was held across the fork).
            return
        with self._lock:
            self._failed = self._failed or failed
            self._refs[version] -= 1
            if self._refs[version] > 0:
                return
            del self._refs[version]
            if self._refs:
                # Only noted here: a retired generation is released from
                # ``__del__``, which the collector may run inside this very
                # pool's ``submit``, under its lock.  Noted under this
                # lock, so a generation that acquires the version next
                # re-opens it after the drop, never before.
                self._dropped.append(version)
                return
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=not self._failed, cancel_futures=True)

    def submit(self, fn, *args):
        pool = self._pool
        if pool is None:
            raise RuntimeError(f"pool lease for {self.path} already shut down")
        try:
            while True:
                pool.submit(shard_worker.process_worker_drop, self._dropped.popleft())
        except IndexError:  # nothing (more) to drop
            pass
        return pool.submit(fn, *args)

    def alive(self) -> bool:
        """False once the pool is shut down or its worker died (a broken
        pool stays broken until the supervisor respawns the lease)."""
        pool = self._pool
        return pool is not None and not getattr(pool, "_broken", False)


class ShardedLakeIndex:
    """Per-shard engines + rosters behind the :class:`LakeIndex` surface
    (``search`` / ``search_merged`` / ``retrieval_reports`` /
    ``set_candidate_budget`` / ``fitted`` / ``health`` / ``close``)."""

    def __init__(
        self,
        store: ShardedLakeStore,
        discoverers: Sequence[Discoverer] | None = None,
        scatter_timeout: float | None = 60.0,
    ):
        self._store = store
        self._prototypes = list(discoverers) if discoverers is not None else None
        self._leases: list[_PoolLease | None] = [None] * store.num_shards
        self._roster_names: list[str] = (
            [d.name for d in self._prototypes] if self._prototypes is not None else []
        )
        self._fitted: dict[str, float] = {}
        self._shard_versions: list[int] = []
        self._last = LastSearch()
        self._built = False
        self._budget: int | None = None
        self._closed = False
        # Per-scatter deadline: a worker that neither answers nor dies
        # within this window counts as hung and its pool is respawned.
        # None disables the deadline.
        self._scatter_timeout = scatter_timeout
        # The most recent search's lost shards, whoever ran it (health()).
        self._health_degraded: tuple[int, ...] = ()
        # Monotonic timestamp of each shard's most recent supervised
        # respawn (None = never respawned); surfaced as an *age* through
        # health() so pollers can spot flapping workers.
        self._last_respawn_at: list[float | None] = [None] * store.num_shards
        # Serializes lazy lease construction: the serving layer's worker
        # threads may race the first search.
        self._exec_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def discoverers(self) -> list[Discoverer]:
        """The prototypes (the fitted clones live per shard, in the
        workers); empty when hydrated without any."""
        return list(self._prototypes or ())

    @property
    def fitted(self) -> dict[str, float]:
        """Fit seconds of everything this index's shards had to fit,
        summed per discoverer (the sequential cost; empty when every
        shard only hydrated)."""
        return dict(self._fitted)

    def set_candidate_budget(self, budget: int | None) -> "ShardedLakeIndex":
        """Engine-wide candidate budget, applied per shard *and* re-judged
        globally by the reducer (see the module docstring); None restores
        unbudgeted retrieval."""
        self._budget = budget
        return self

    def retrieval_reports(self) -> dict[str, dict[str, Any]]:
        """The calling thread's last-retrieval summaries: the reducer's
        judgement over the whole lake, which is what the unsharded engine
        records (``discover --explain``)."""
        return {name: report.to_json() for name, report in self._last.reports.items()}

    @property
    def last_degraded_shards(self) -> tuple[int, ...]:
        """Shard indexes the calling thread's previous :meth:`search`
        could not recover (dead even after a respawn + retry) -- empty
        on a healthy query.  The pipeline threads this into the
        response's degraded-result annotation."""
        return self._last.degraded

    @property
    def worker_respawns(self) -> int:
        """Shard pools respawned by supervision in this process (the
        ``shard.worker.respawns`` counter: every generation, every reload)."""
        return metrics.counter("shard.worker.respawns").value

    def health(self) -> dict[str, Any]:
        """The index's part of the service ``health`` document: the shards
        the last search served without, the process's respawn count, and
        per-shard liveness.  A lease that was never spawned reports alive
        -- it will be on first use; a broken one reports dead until
        supervision respawns it on the next scatter.  ``last_respawn_age_s`` is the
        seconds since supervision last replaced the shard's pool (None =
        never): a small, repeatedly-resetting age marks a flapping worker
        without any metrics plumbing."""
        now = time.monotonic()
        shards: list[dict[str, Any]] = []
        for i, name in enumerate(self._store.shard_names):
            respawned_at = self._last_respawn_at[i]
            lease = self._leases[i]
            entry: dict[str, Any] = {
                "shard": name,
                "version": (
                    self._shard_versions[i]
                    if i < len(self._shard_versions)
                    else None
                ),
                "last_respawn_age_s": (
                    round(now - respawned_at, 3) if respawned_at is not None else None
                ),
                "alive": lease is None or lease.alive(),
            }
            shards.append(entry)
        return {
            "degraded_shards": list(self._health_degraded),
            "worker_respawns": self.worker_respawns,
            "shards": shards,
        }

    def engine_summary(self) -> str:
        """The engine line of ``discover --explain`` (one engine per
        shard, summarized by the reducer)."""
        return (
            f"sharded engine: {len(self._store)} tables across "
            f"{self._store.num_shards} shards"
        )

    # ------------------------------------------------------------------
    # Lake-global fit state (see the module docstring)
    # ------------------------------------------------------------------
    def _ensure_fit_state(self) -> None:
        """Persist every roster member's lake product over the combined
        lake, unless persisted already; a worker about to fit reads them
        from the lake root.  Reads hydrated stats only, never cells."""
        assert self._prototypes is not None
        if self._store.has_fit_state():
            return
        stats = self._store.lake().stats
        products: dict[str, Any] = {}
        for proto in self._prototypes:
            product = proto.lake_product(stats)
            if product is not None:
                products[proto.name] = product
        self._store.save_fit_state(products)

    # ------------------------------------------------------------------
    # Build / hydrate
    # ------------------------------------------------------------------
    def build(self) -> "ShardedLakeIndex":
        """Make every shard's index current: the lake-global fit state
        first (computed unless persisted), then each stale shard's roster
        fitted and persisted pinned to its version.  Idempotent."""
        if self._built:
            return self
        if self._prototypes is None:
            raise StoreError(
                "building a sharded index requires discoverer prototypes; "
                "pass discoverers= (or hydrate with from_store after an "
                "index build)"
            )
        self._hydrate()
        return self

    @classmethod
    def from_store(
        cls,
        store: ShardedLakeStore,
        discoverers: Sequence[Discoverer] | None = None,
        previous: "ShardedLakeIndex | None" = None,
    ) -> "ShardedLakeIndex":
        """A ready-to-search sharded index hydrated from persisted
        per-shard artifacts.

        *previous* (a still-serving :class:`ShardedLakeIndex` over the
        same lake) donates the warm worker-pool lease of every shard; a
        shard whose version moved is re-opened inside its worker, so a
        single-table ingest reload refits exactly one shard and forks
        nothing.  Shards with missing or stale
        persisted indexes are refitted (with the pinned global fit
        state) and re-persisted where their index lives, in the shard's
        worker; with ``discoverers=None`` that situation raises instead.
        """
        index = cls(store, discoverers=discoverers)
        index._hydrate(previous)
        return index

    def _reusable(self, previous: "ShardedLakeIndex | None") -> bool:
        return (
            isinstance(previous, ShardedLakeIndex)
            and previous is not self
            and previous._built
            and not previous._closed
            and previous._store.num_shards == self._store.num_shards
            and str(previous._store.path) == str(self._store.path)
            and (
                self._prototypes is None
                or previous._roster_names == [d.name for d in self._prototypes]
            )
        )

    def _hydrate(self, previous: "ShardedLakeIndex | None" = None) -> None:
        store = self._store
        donor = previous if self._reusable(previous) else None
        self._shard_versions = store.shard_versions()
        roster_names: list[str] = list(self._roster_names)
        if not roster_names:
            # No prototypes: serve the roster every shard can answer.
            # Shards may persist heterogeneous rosters (a pipeline opened
            # with a subset refits only the shards that moved), so the
            # servable roster is the cross-shard intersection, in the
            # first shard's persisted order.
            if donor is not None:
                roster_names = list(donor._roster_names)
            else:
                common: set[str] | None = None
                first_order: list[str] = []
                for shard in store.shards:
                    persisted = list(shard.info().get("indexes") or [])
                    if common is None:
                        common = set(persisted)
                        first_order = persisted
                    else:
                        common &= set(persisted)
                roster_names = [n for n in first_order if n in (common or set())]
            if not roster_names:
                raise StoreError(
                    "no discoverer index is persisted on every shard; run an "
                    "index build or pass explicit discoverers"
                )
            self._roster_names = list(roster_names)
        # Shards to open now: the stale ones (a current shard's worker
        # starts -- and hydrates -- on the first scatter, see
        # _ensure_leases) and the moved ones whose worker is up.
        pending: list[int] = []
        for i, shard in enumerate(store.shards):
            version = self._shard_versions[i]
            lease = donor._leases[i] if donor is not None else None
            if lease is not None:
                # The donated pool carries its respawn history: a
                # flapping worker stays visible across reloads.
                self._leases[i] = lease
                self._last_respawn_at[i] = donor._last_respawn_at[i]
                if lease.acquire(version):
                    continue
            info = shard.info()
            current = info.get("indexes_lake_version") == version and set(
                roster_names
            ) <= set(info.get("indexes") or [])
            if not current and self._prototypes is None:
                raise StoreError(
                    f"shard {store.shard_names[i]} has no current persisted "
                    f"indexes for version {version}; run an index build or "
                    f"pass explicit discoverers"
                )
            if lease is not None or not current:
                pending.append(i)
        if pending:
            # Anything to fit exists only with prototypes (checked above).
            self._ensure_fit_state()
            self._fit_in_workers(pending)
        self._built = True

    def _fit_in_workers(self, shards: list[int]) -> None:
        """Have the workers of *shards* open this index's version at once
        (each fits and persists what its shard lacks) and wait until all
        report ready: a live worker donated by the previous generation
        re-opens in place, a shard without one starts its worker.
        Supervised like a scatter: a worker that dies or blows the
        deadline is respawned and awaited once more; after a second
        failure the shard keeps a fresh lease, to be fitted by the first
        scatter that reaches it (degraded, never cached, if that fails
        too).  A re-open the worker refuses -- the shard is already past
        this version -- ends the same way, but the worker is not a
        failed one: it is handed back to the generations it still serves.
        An armed worker kill is consumed by a worker that will fit (fault
        point ``shard.worker.fit``)."""
        timeout = self._scatter_timeout and self._scatter_timeout * _FIT_DEADLINES
        tracer = trace.current_tracer()
        for attempt in range(2):
            futures: dict[int, Any] = {}
            for i in shards:
                kill = _SCATTER_KILL.take_worker_kill(i)
                lease = self._leases[i]
                if attempt:
                    self._respawn_lease(i, kill)
                elif lease is None:
                    self._leases[i] = self._new_lease(i, kill)
                else:
                    try:
                        futures[i] = lease.submit(
                            shard_worker.process_worker_open,
                            self._shard_versions[i],
                            self._prototypes,
                            kill,
                        )
                    except RuntimeError:  # its pool broke since the last scatter
                        pass
                    continue
                futures[i] = self._leases[i].submit(
                    shard_worker.process_worker_ready, None
                )
            failed = [i for i in shards if i not in futures]
            for i, future in futures.items():
                try:
                    ready = future.result(timeout=timeout)
                except (BrokenProcessPool, FutureTimeout):
                    failed.append(i)
                    continue
                except StoreError:
                    self._leases[i].release(self._shard_versions[i])
                    self._leases[i] = None
                    continue
                # The worker committed through its own handle; this one
                # must know the files it now owns.
                self._store.shards[i].refresh()
                for name, seconds in ready["fitted"].items():
                    self._fitted[name] = self._fitted.get(name, 0.0) + seconds
                metrics.histogram("shard.worker.fit_seconds").observe_ms(
                    ready["trace"]["wall_ms"]
                )
                if tracer is not None:
                    tracer.attach_tree(ready["trace"])
            shards = failed
        for i in shards:
            self._respawn_lease(i)

    # ------------------------------------------------------------------
    # Worker pool leases
    # ------------------------------------------------------------------
    def _new_lease(self, i: int, fault_kill: bool = False) -> _PoolLease:
        return _PoolLease(
            str(self._store.shards[i].path),
            self._shard_versions[i],
            self._prototypes,
            fault_kill,
        )

    def _ensure_leases(self) -> list[_PoolLease]:
        with self._exec_lock:
            leases: list[_PoolLease] = []
            for i in range(self._store.num_shards):
                lease = self._leases[i]
                if lease is None:
                    lease = self._leases[i] = self._new_lease(i)
                leases.append(lease)
            return leases

    def _respawn_lease(self, i: int, fault_kill: bool = False) -> None:
        """Replace shard *i*'s pool with a fresh one (its worker died or
        hung); the old lease is released as failed, never waited on -- a
        hung task cannot block the respawn."""
        with self._exec_lock:
            old = self._leases[i]
            self._leases[i] = self._new_lease(i, fault_kill)
        if old is not None:
            try:
                old.release(self._shard_versions[i], failed=True)
            except Exception:  # noqa: BLE001 - a broken pool may refuse
                pass
        self._last_respawn_at[i] = time.monotonic()
        metrics.counter("shard.worker.respawns").inc()

    # ------------------------------------------------------------------
    # Search: scatter, reduce, (maybe) fallback scatter
    # ------------------------------------------------------------------
    def search(
        self,
        query: Table,
        k: int = 10,
        query_column: str | None = None,
        discoverer_names: Sequence[str] | None = None,
    ) -> dict[str, list[DiscoveryResult]]:
        """Top-k per discoverer over the whole lake -- byte-identical to
        the same roster on an unsharded :class:`LakeIndex`."""
        if not self._built:
            self.build()
        if k <= 0:
            raise ValueError("k must be positive")
        # Ship the roster explicitly: a shard's *persisted* roster may be
        # wider than this index's (e.g. a pipeline opened with a subset of
        # the discoverers the store was built with), and the workers must
        # not widen the answer.  An unknown name is the KeyError of the
        # workers' LakeIndex.select.
        names = (
            list(discoverer_names)
            if discoverer_names is not None
            else list(self._roster_names) or None
        )
        tracer = trace.current_tracer()
        degraded_all: set[int] = set()
        reports: dict[str, RetrievalReport] = {}
        with trace.span("discover.scatter", shards=self._store.num_shards) as scatter:
            scatter_span = scatter if tracer is not None else None
            answers, walls, degraded = self._scatter(
                query, k, query_column, names, 1, tracer, scatter_span
            )
            degraded_all.update(degraded)
            if not answers:
                raise StoreError(
                    f"discover scatter failed on every shard "
                    f"(shards {sorted(degraded_all)} dead after respawn + retry)"
                )
            self._observe_skew(walls, scatter)
            ordered = names if names is not None else list(answers[0].keys())
            merged: dict[str, list[DiscoveryResult]] = {}
            needs_fallback: list[str] = []
            for name in ordered:
                payloads = [answer[name] for answer in answers]
                reports[name], reduced = self._reduce(name, payloads, k)
                if reduced is None:
                    needs_fallback.append(name)
                else:
                    merged[name] = reduced
            if needs_fallback:
                fallback_answers, fallback_walls, degraded = self._scatter(
                    query, k, query_column, needs_fallback, 2, tracer, scatter_span
                )
                degraded_all.update(degraded)
                if not fallback_answers:
                    raise StoreError(
                        f"fallback scatter failed on every shard "
                        f"(shards {sorted(degraded_all)} dead after respawn + retry)"
                    )
                self._observe_skew(fallback_walls, scatter)
                for name in needs_fallback:
                    rows = [
                        result
                        for answer in fallback_answers
                        for result in answer[name]
                    ]
                    rows.sort(key=lambda r: (-r.score, r.table_name))
                    merged[name] = rows[:k]
        self._last.reports = reports
        self._last.degraded = self._health_degraded = tuple(sorted(degraded_all))
        if degraded_all:
            metrics.counter("shard.scatter.degraded").inc()
        return {name: merged[name] for name in ordered}

    def search_merged(
        self,
        query: Table,
        k: int = 10,
        query_column: str | None = None,
    ) -> list[DiscoveryResult]:
        """The union of all discoverers' result sets (the integration-set
        construction)."""
        per_discoverer = self.search(query, k=k, query_column=query_column)
        return merge_result_sets(list(per_discoverer.values()))

    def _scatter(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        names: Sequence[str] | None,
        round_: int,
        tracer,
        scatter_span,
    ) -> tuple[list[dict[str, Any]], list[float], tuple[int, ...]]:
        """Run one round on every shard; returns (per-shard answers,
        per-shard wall milliseconds -- off the root of each shard's span
        tree -- and degraded shard indexes), answers in shard roster order
        with degraded shards omitted.  What a worker's task *raises*
        propagates; only the loss of a worker is supervised (module
        docstring)."""
        num = self._store.num_shards
        document = encode_table(query)

        def payload_for(i: int) -> dict[str, Any]:
            doc: dict[str, Any] = {
                "query": document,
                "k": k,
                "column": query_column,
                "names": list(names) if names is not None else None,
                "budget": self._budget,
                "label": f"shard[{i}]",
                "round": round_,
                # Answered from exactly this version's index: the worker
                # may hold a newer one for the next generation already.
                "version": self._shard_versions[i],
                # Distributed trace propagation: the worker adopts this
                # request's id so its shipped-back tree grafts into the
                # same tree the client started.
                "trace_id": tracer.trace_id if tracer is not None else None,
            }
            # The fault plane is process-local, so an armed worker kill is
            # consumed driver-side at submit time and shipped as a poison
            # flag the worker honors with os._exit -- a *real* process
            # death, exercising the same BrokenProcessPool path an OOM
            # kill or segfault would.
            if _SCATTER_KILL.take_worker_kill(i):
                doc[shard_worker.WORKER_EXIT.name] = True
            return doc

        def attempt(shards: Sequence[int]) -> dict[int, dict[str, Any]]:
            """This round's outcome on each of *shards* whose worker
            survived it.  A shard goes missing when its pool refuses the
            task (broken by a dead worker, or shut down), the worker dies
            under it, the deadline passes, or a concurrent search's
            respawn cancels it; whatever the task itself raises is the
            caller's."""
            leases = self._ensure_leases()
            futures: dict[int, Any] = {}
            for i in shards:
                payload = payload_for(i)
                try:
                    futures[i] = leases[i].submit(
                        shard_worker.process_worker_run, payload
                    )
                except RuntimeError:  # BrokenProcessPool is one
                    pass
            outcomes: dict[int, dict[str, Any]] = {}
            for i, future in futures.items():
                try:
                    outcomes[i] = future.result(timeout=self._scatter_timeout)
                except (BrokenProcessPool, FutureTimeout, CancelledError):
                    pass
            return outcomes

        results = attempt(range(num))
        failed = [i for i in range(num) if i not in results]
        degraded: list[int] = []
        if failed:
            # Supervision: respawn each failed shard's pool, retry the
            # scatter once on those shards only.  A shard that fails its
            # retry too is dropped from this answer (degraded result) and
            # left with a fresh pool for the next query.
            metrics.counter("shard.scatter.failures").inc(len(failed))
            for i in failed:
                self._respawn_lease(i)
            results.update(attempt(failed))
            degraded = [i for i in failed if i not in results]
            for i in degraded:
                self._respawn_lease(i)
        answers: list[dict[str, Any]] = []
        walls: list[float] = []
        for i in range(num):
            outcome = results.get(i)
            if outcome is None:
                continue
            answers.append(outcome["answer"])
            walls.append(outcome["trace"]["wall_ms"])
            if tracer is not None:
                tracer.attach_tree(outcome["trace"], parent=scatter_span)
        return answers, walls, tuple(degraded)

    def _observe_skew(self, walls: list[float], scatter_span) -> None:
        if not walls:
            return
        mean = sum(walls) / len(walls)
        skew = (max(walls) / mean) if mean > 0 else 1.0
        metrics.histogram("shard.scatter.skew", bounds=_SKEW_BOUNDS).observe(skew)
        scatter_span.add(skew=round(skew, 3))

    def _reduce(
        self, name: str, payloads: list[dict[str, Any]], k: int
    ) -> tuple[RetrievalReport, list[DiscoveryResult] | None]:
        """Judge and merge one discoverer's round-one answers: the whole
        lake's report, and the top *k* -- None when the lake's retrieved
        count is under the fallback floor and round two must run.

        A retrieval a judgement ran on is judged again by
        :func:`~repro.candidates.spec.judge` over the whole lake: the
        summed retrieved count, the union of the shards' rankings (shipped
        under a budget; shards are disjoint, so it is the lake's) and the
        query-side probe count any shard reports.  One no judgement ran
        on (an exhaustive scan, an unprobeable query) sums its shards'
        counts.  The final ranking is the scorers' shared ``(-score,
        table_name)`` total order.
        """
        results = [result for payload in payloads for result in payload["results"]]
        first = payloads[0]
        retrieved = sum(payload["report"].retrieved for payload in payloads)
        if first["spec"] is None:
            report = replace(
                first["report"],
                retrieved=retrieved,
                scored=retrieved,
                lake_size=len(self._store),
            )
        else:
            union: dict[str, float] = {}
            for payload in payloads:
                union.update(payload["ranking"] or {})
            kept, report = judge(
                name,
                first["spec"],
                k,
                self._budget,
                rank(union),
                self._store.lake(),
                first["report"].probes,
                retrieved,
            )
            if report.truncated:
                keep = set(kept)
                results = [r for r in results if r.table_name in keep]
        if report.fallback:
            return report, None
        results.sort(key=lambda r: (-r.score, r.table_name))
        return report, results[:k]

    # ------------------------------------------------------------------
    # Worker metrics
    # ------------------------------------------------------------------
    def worker_metrics(self) -> dict[str, Any] | None:
        """The shard workers' metrics registries folded into one snapshot
        (None while no worker has been started)."""
        merged: dict[str, Any] | None = None
        for lease in self._leases:
            if lease is None:
                continue
            try:
                snapshot = lease.submit(
                    shard_worker.process_worker_metrics, None
                ).result(timeout=5.0)
            except Exception:  # noqa: BLE001 - diagnostics must not fail serving
                continue
            merged = (
                snapshot if merged is None else metrics.merge_snapshots(merged, snapshot)
            )
        return merged

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this index's worker pools (leases are refcounted: a
        successor generation holding an acquired lease keeps its worker
        alive)."""
        if self._closed:
            return
        self._closed = True
        leases, self._leases = self._leases, [None] * self._store.num_shards
        for lease, version in zip(leases, self._shard_versions):
            if lease is not None:
                lease.release(version)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ShardedLakeIndex({self._store.num_shards} shards, "
            f"built={self._built})"
        )
