"""Per-shard search execution for scatter-gather discovery.

A shard answers a query with its own
:class:`~repro.datalake.indexer.LakeIndex` -- the plain two-phase search,
retrieval through the shard's candidate engine and scoring of retrieved
candidates only -- in at most two rounds.  Judging a retrieval against
the spec's floor and budget over the *whole* lake is the reducer's
(:class:`~repro.shard.index.ShardedLakeIndex`): it calls the one
:func:`~repro.candidates.spec.judge` the shard engines call, over the
union of the shards' evidence.

* **Round one** (:func:`first_round`) scores each discoverer's
  :meth:`~repro.candidates.CandidateSet.unfloored` candidates -- the
  top-budget of the shard's ranking, whatever the shard's own floor said
  -- and ships the results, the shard engine's report and, under a
  budget, the ranking with its strengths.
* **Round two** runs only for a discoverer whose whole-lake count is
  under its floor, and it is the shard's plain :meth:`LakeIndex.search
  <repro.datalake.indexer.LakeIndex.search>`: a shard's count is at most
  the lake's, so the shard's own judgement falls back too, to the whole
  shard with its evidence kept -- the image of the unsharded fallback.

Why the merge is byte-identical to the single-store pipeline:

* every scorer ranks candidates by per-candidate-pure functions of the
  query and the candidate's own column stats, then sorts by the total
  order ``(-score, table_name)`` -- so the global top-k is contained in
  the union of per-shard top-k lists (any table beaten by >= k tables
  globally is beaten by >= k tables within its own shard's slice);
* retrieval evidence (posting probes, banded sketch hits with
  size-bucket partitioning, label matches) is per-candidate pure, so a
  shard's evidence is exactly the global evidence restricted to its
  tables, and its probe count -- counted on the query side -- is the
  lake's;
* the shards are disjoint, so their retrieved counts add up to the
  lake's and the union of their rankings is the lake's; the lake's
  top-budget tables inside one shard are a prefix of that shard's own
  ranking, so round one's cap at the same budget never drops a table
  the reducer keeps (both pinned by ``tests/property/test_judgement.py``).

A shard's registry counts what its own engine did: ``engine.retrievals``
every retrieval (round two's too), ``engine.fallbacks`` /
``engine.truncations`` the shard's own judgement -- a shard under the
floor counts a fallback in round one, although it scored its unfloored
candidates.  The lake-wide judgement is the reducer's report
(``retrieval_reports``), not a counter.

**Fit where the index lives.**  :func:`open_shard_index` is the one
place a shard's index comes to life -- first build, warm start, the
refit after an ingest, a supervised respawn -- and it is the shard
store's own :meth:`~repro.store.lakestore.LakeStore.open_index`
(hydrate, fit the rest, persist what was fitted) under this module's
span and fault point.  It runs in the shard's own worker, never in the
serving process.  What it fits is :func:`adapted_roster`: unfitted
clones of the roster's prototypes, each one with a lake product in
``global_fit.pkl`` (computed once over the combined lake) pinned to it with
:meth:`Discoverer.adopt <repro.discovery.base.Discoverer.adopt>`, so
every shard fits with lake-wide statistics; the worker never asks which
discoverer it holds.

The ``process_worker_*`` functions are the pool entry points.  A worker
lives as long as the service: its initializer opens the shard at the
pinned version (first start, or a supervised respawn);
:func:`process_worker_open` opens a later version beside it after an
ingest, on a :meth:`~repro.store.lakestore.LakeStore.reopen` of the
handle it already holds, so only what moved is hydrated; each round of
a search is answered from the index of the version its payload names; and
:func:`process_worker_drop` lets a version go when the last generation
serving it has closed.  Queries cross the process boundary as codec
documents (stored tables carry unpicklable column loaders).  Every reply
carries its span tree as a dict, and the tree is the reply's only clock:
the driver reads ``wall_ms`` / ``cpu_ms`` off its root, and grafts it
(:meth:`Tracer.attach_tree <repro.obs.trace.Tracer.attach_tree>`) only
when the request is traced.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Sequence

from ..faults import inject
from ..obs import metrics, trace
from ..store.codec import decode_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datalake.indexer import LakeIndex
    from ..discovery.base import Discoverer
    from ..store.lakestore import LakeStore
    from ..table.table import Table

__all__ = [
    "adapted_roster",
    "open_shard_index",
    "first_round",
    "process_worker_init",
    "process_worker_ready",
    "process_worker_open",
    "process_worker_drop",
    "process_worker_run",
    "process_worker_metrics",
]

_FIT = inject.point("shard.worker.fit")
#: A scatter payload that carries this point's name as a flag is an armed
#: worker kill the driver consumed: the worker dies before answering.
WORKER_EXIT = inject.point("shard.worker.exit")


def adapted_roster(
    prototypes: Sequence["Discoverer"], state: dict[str, Any] | None
) -> list["Discoverer"]:
    """Unfitted clones of *prototypes*, each pinned to its lake product in
    *state* (the :func:`~repro.shard.store.load_fit_state` payload) when
    it has one -- what a shard fits (and substitutes persisted indexes
    into); the prototypes themselves are never fitted."""
    products = (state or {}).get("products", {})
    roster: list["Discoverer"] = []
    for proto in prototypes:
        clone = proto.clone_unfitted()
        if proto.name in products:
            clone.adopt(products[proto.name])
        roster.append(clone)
    return roster


def open_shard_index(
    store: "LakeStore",
    prototypes: Sequence["Discoverer"] | None = None,
    state: dict[str, Any] | None = None,
) -> "LakeIndex":
    """Shard *store*'s ready-to-search index (``index.fitted``: what had
    to be fitted to make it): :meth:`LakeStore.open_index` over the
    adapted roster (``prototypes=None``: the persisted roster, verbatim)
    under this worker's span, with the fault point between fit and
    persist.
    """
    roster = adapted_roster(prototypes, state) if prototypes is not None else None

    @contextmanager
    def persisting():
        _FIT.fire()
        with trace.span("shard.worker.persist"):
            yield

    with trace.span("shard.worker.fit", shard=store.path.name) as span:
        index = store.open_index(roster, persisting=persisting)
        span.add(fitted=len(index.fitted))
    return index


def first_round(
    index: "LakeIndex",
    query: "Table",
    k: int,
    query_column: str | None,
    names: Sequence[str] | None,
) -> dict[str, dict[str, Any]]:
    """Round one on one shard, per discoverer *names* picks: its results
    over the unfloored candidates (all of them under a budget, for the
    reducer to keep the lake's top-budget's; else the top *k*), the shard
    engine's ``report`` and, when a judgement ran, the ``spec`` and --
    under a budget -- the ``ranking`` the reducer judges the lake by."""
    out: dict[str, dict[str, Any]] = {}
    for discoverer in index.select(names):
        results, candidates = discoverer.ranked(query, k, query_column, floored=False)
        spec = discoverer.candidate_spec()
        judged = candidates.ranking is not None
        budget = spec.effective_budget(index.engine.default_budget)
        budgeted = judged and budget is not None
        out[discoverer.name] = {
            "results": results if budgeted else results[:k],
            "report": candidates.report,
            "spec": spec if judged else None,
            "ranking": candidates.ranking if budgeted else None,
        }
    return out


# ----------------------------------------------------------------------
# Process-pool entry points (one single-worker pool per shard, for the
# life of the service: the worker keeps one warm index per lake version
# a serving generation still holds)
# ----------------------------------------------------------------------
#: ``indexes`` ({version: index}), ``store`` (the newest handle; the next
#: open carries its hydrated snapshots), ``ready``, ``shard_path``.
_WORKER: dict[str, Any] = {}


def process_worker_init(
    shard_path: str,
    expected_version: int | None = None,
    prototypes: Sequence["Discoverer"] | None = None,
    fault_kill: bool = False,
) -> None:
    """Pool initializer -- first start and supervised respawn:
    :func:`process_worker_open` on this worker's own handle of the shard;
    the worker serves what it hydrated or fitted.

    ``expected_version`` pins the worker to the lease's generation.  A
    *respawned* worker (supervision replacing a dead one) can race a
    concurrent ingest: the shard's on-disk version has moved and its
    state belongs to a lake the driver is not serving -- answering from
    it would return wrong-version results.  Exiting cleanly instead turns
    the race into a supervised failure: the affected answer degrades
    (annotated, never cached) until the service reload swaps in a
    generation built for the new version.  ``os._exit`` rather than
    ``raise`` so the driver sees the same broken-pool signal as a crash,
    without an initializer traceback polluting stderr on an expected
    transition.
    """
    from ..store.lakestore import StoreError

    _WORKER["shard_path"] = shard_path
    try:
        _WORKER["ready"] = process_worker_open(expected_version, prototypes, fault_kill)
    except StoreError:
        # The pin race, mid-ingest artifact state, or a commit refused
        # because the shard moved on during the fit: the same transition.
        os._exit(3)


def process_worker_ready(_: Any = None) -> dict[str, Any]:
    """What the initializer did, for a driver that waits for it: fit
    seconds per discoverer (``fitted``) and the open's span tree
    (``trace``: ``shard.worker.fit`` over hydrate / per-discoverer fit /
    persist, whose root ``wall_ms`` is the open's time)."""
    return _WORKER["ready"]


def process_worker_open(
    version: int | None,
    prototypes: Sequence["Discoverer"] | None = None,
    fault_kill: bool = False,
) -> dict[str, Any]:
    """:func:`open_shard_index` at the shard's on-disk version, beside
    the versions this worker already serves; returns the ready reply.
    Called by the initializer, and by the driver for the refit after an
    ingest: the live worker then opens a
    :meth:`~repro.store.lakestore.LakeStore.reopen` of the handle it
    holds, so only what moved is hydrated.  The lake-global fit products
    are read from the lake root.

    The on-disk version must be *version*: a shard already past it
    refuses with ``StoreError`` (as does a commit refused because the
    shard moved on during the fit) and the worker lives on, still
    serving what it held.

    The open is always recorded as a span tree, the reply's ``trace``.
    ``fault_kill`` is the driver-consumed half of an armed worker kill:
    it arms this process's own fault plane so the worker dies for real
    between fitting and persisting; a fault inherited through the fork
    (``store.write_index``, ...) ends the same way -- a death, not an
    exception.
    """
    from ..faults import FaultInjected
    from ..store.lakestore import LakeStore, StoreError
    from .store import load_fit_state

    tracer = trace.Tracer()
    held = _WORKER.get("store")
    store = held.reopen() if held is not None else LakeStore.open(_WORKER["shard_path"])
    if version is not None and store.lake_version != version:
        raise StoreError(
            f"shard at {store.path} is at v{store.lake_version}, not the "
            f"v{version} this worker was asked to open"
        )
    state = load_fit_state(store.path.parent) if prototypes is not None else None
    if fault_kill:
        inject.crash_after(_FIT.name)
    try:
        with tracer.activate():
            index = open_shard_index(store, prototypes, state)
    except FaultInjected:
        os._exit(17)
    _WORKER["store"] = store
    indexes = _WORKER.setdefault("indexes", {})
    indexes[store.lake_version] = index
    metrics.gauge("shard.worker.open_versions").set(len(indexes))
    return {"fitted": index.fitted, "trace": tracer.to_dict()}


def process_worker_drop(version: int) -> None:
    """The last generation serving *version* closed: let its index (and,
    unless it is the newest, its store handle) go."""
    indexes = _WORKER["indexes"]
    indexes.pop(version, None)
    metrics.gauge("shard.worker.open_versions").set(len(indexes))


def process_worker_run(payload: dict[str, Any]) -> dict[str, Any]:
    """One scatter task: decode the query, run the requested round on the
    warm index of the version the sending generation serves (not the
    newest one held) under a local tracer, ship results + span tree back.
    The tree's root is ``shard[i]``, counters ``round`` (1 or 2) and the
    adopted ``trace_id``; its ``wall_ms`` / ``cpu_ms`` (this worker
    thread's own CPU, which excludes time descheduled while sibling
    shards share a starved host) are the task's retrieval + scoring
    time -- the driver's scatter skew, ``bench_shard``'s critical path."""
    if payload.get(WORKER_EXIT.name):
        # Injected worker death: die for real, before answering, so the
        # driver observes a genuine BrokenProcessPool -- not an exception
        # a result pickle could soften.
        os._exit(17)
    index = _WORKER["indexes"][payload["version"]]
    index.engine.default_budget = payload.get("budget")
    query = decode_table(payload["query"])
    # Warm the query profile before the root span opens: it is the same
    # constant on every shard.
    query.stats.warm()
    # Adopt the driver's distributed trace id so this worker's tree
    # grafts into the request's single tree; stamp the root span with it
    # as observable proof of propagation in the merged rendering.
    trace_id = payload.get("trace_id")
    tracer = trace.Tracer(trace_id=trace_id)
    root_counters = {"round": payload["round"]}
    if trace_id:
        root_counters["trace_id"] = trace_id
    with tracer.activate():
        with tracer.span(payload["label"], **root_counters):
            args = (query, payload["k"], payload["column"], payload["names"])
            answer: Any = (
                index.search(*args) if payload["round"] == 2 else first_round(index, *args)
            )
    return {"answer": answer, "trace": tracer.to_dict()}


def process_worker_metrics(_: Any = None) -> dict[str, Any]:
    """This worker process's metrics snapshot (the driver folds all of
    them into one view with ``merge_snapshots``).  The ``identity`` key
    names the reporting process; :func:`merge_snapshots` ignores it, so
    folding is unchanged while exported documents stay attributable."""
    from ..obs.export import snapshot_identity

    snapshot = metrics.global_registry().snapshot()
    snapshot["identity"] = snapshot_identity(
        "shard-worker", shard=_WORKER.get("shard_path")
    )
    return snapshot
