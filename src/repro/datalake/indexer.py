"""Offline index building over a data lake (paper Sec. 3.1).

The demo pre-builds the SANTOS and LSH Ensemble indexes so users query a
ready lake; :class:`LakeIndex` is that offline step: it fits every
configured discoverer against the lake, records per-discoverer fit times
(``fitted``), and then serves fan-out searches.

The index owns two shared substrates.  The lake-wide
:class:`~repro.datalake.stats.LakeStats` cache gives every fit the same
memoized tokens / distinct sets / sketches (one raw pass per column), and
the :class:`~repro.candidates.CandidateEngine` gives every *search* the
same sublinear retrieval structures (inverted postings, sketch bands,
label namespaces) -- ``build`` constructs one engine and threads it
through all fits, and ``search`` profiles the query table once before
fanning out, so a fan-out over D discoverers performs one query-stat
pass and D candidate retrievals instead of D full-lake scans.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping, Sequence

from ..candidates.engine import CandidateEngine
from ..candidates.spec import RetrievalReport
from ..discovery.base import Discoverer, DiscoveryResult, merge_result_sets
from ..obs import trace
from ..table.table import Table
from .stats import LakeStats

__all__ = ["LakeIndex"]


class LastSearch(threading.local):
    """What the calling thread's previous search reported -- for either
    index layout.  Searches run concurrently on the serving layer's pool,
    so a search's outcome is kept per thread: the caller that ran it
    reads its own, never a neighbour's."""

    def __init__(self) -> None:
        self.reports: dict[str, RetrievalReport] = {}
        self.degraded: tuple[int, ...] = ()


class LakeIndex:
    """A set of fitted discoverers over one lake, sharing one stats cache
    and one candidate engine."""

    def __init__(self, lake: Mapping[str, Table], discoverers: Sequence[Discoverer]):
        names = [d.name for d in discoverers]
        if len(set(names)) != len(names):
            raise ValueError(f"discoverer names must be unique: {names}")
        self._tables = lake
        self._discoverers = list(discoverers)
        self._fitted: dict[str, float] = {}
        self._built = False
        self._engine: CandidateEngine | None = None
        self._last = LastSearch()

    @property
    def discoverers(self) -> list[Discoverer]:
        return list(self._discoverers)

    @property
    def stats(self) -> LakeStats:
        """The shared per-column statistics of the indexed lake.

        A lake that carries its own stats view (``DataLake.stats`` -- in
        particular a stored lake's hydrated, non-materializing view) is
        deferred to; a plain mapping gets the generic live view."""
        own = getattr(self._tables, "stats", None)
        if isinstance(own, LakeStats):
            return own
        return LakeStats(self._tables)

    @property
    def engine(self) -> CandidateEngine:
        """The shared candidate engine (created by :meth:`build`)."""
        if self._engine is None:
            self._engine = CandidateEngine(self._tables, stats=self.stats)
        return self._engine

    def set_candidate_budget(self, budget: int | None) -> "LakeIndex":
        """Engine-wide candidate-budget default (the CLI's
        ``--candidate-budget``); None restores unbudgeted retrieval."""
        self.engine.default_budget = budget
        return self

    def _roster_channels(self) -> set[str]:
        return {c for d in self._discoverers for c in d.candidate_spec().channels}

    @property
    def fitted(self) -> dict[str, float]:
        """Fit wall seconds of every discoverer this index had to fit
        (empty on a pure hydration) -- what ``open_index`` persists."""
        return dict(self._fitted)

    @property
    def is_built(self) -> bool:
        return self._built

    # The serving surface shared with the sharded index: a plain index
    # has no shard to lose, no worker to respawn and nothing to release.
    last_degraded_shards: tuple[int, ...] = ()

    def health(self) -> dict[str, Any]:
        """The index's part of the service ``health`` document."""
        return {"degraded_shards": [], "worker_respawns": 0}

    def worker_metrics(self) -> None:
        """No worker processes: this process's registry is the whole view."""

    def engine_summary(self) -> str:
        """The engine line of ``discover --explain``."""
        stats = self.engine.stats()
        budget = stats["default_budget"]
        return (
            f"engine: {stats['tables']} tables, "
            f"budget={'unbudgeted' if budget is None else budget}"
        )

    def close(self) -> None:
        """Nothing to release (the sharded index owns pools and leases)."""

    def build(self) -> "LakeIndex":
        """Fit every discoverer (idempotent); returns self."""
        self.stats.warm()  # one raw pass per column, shared by all fits
        engine = self.engine
        engine.warm(self._roster_channels())  # postings built once, offline
        for discoverer in self._discoverers:
            self._fit(discoverer, self._tables, engine)
        self._built = True
        return self

    def _fit(
        self, discoverer: Discoverer, lake: Mapping[str, Table], engine: CandidateEngine
    ) -> None:
        start = time.perf_counter()
        discoverer.fit(lake, engine=engine)
        self._fitted[discoverer.name] = seconds = time.perf_counter() - start
        trace.record(f"index.fit.{discoverer.name}", wall_s=seconds)

    def search(
        self,
        query: Table,
        k: int = 10,
        query_column: str | None = None,
        discoverer_names: Sequence[str] | None = None,
    ) -> dict[str, list[DiscoveryResult]]:
        """Top-k per discoverer (build first if needed).

        The query table is profiled exactly once per fan-out: its column
        stats warm here, and every discoverer's retrieval and scoring
        phases read the same memoized tokens / values / signatures.  The
        reports of the candidate sets it scored become this thread's
        :meth:`retrieval_reports` (a plug-in's own retrieval, with no
        report, has none).
        """
        if not self._built:
            self.build()
        chosen = self.select(discoverer_names)
        query.stats.warm()  # one scoped profiling pass, shared by the fan-out
        found: dict[str, list[DiscoveryResult]] = {}
        reports: dict[str, RetrievalReport] = {}
        for discoverer in chosen:
            results, candidates = discoverer.ranked(query, k, query_column)
            found[discoverer.name] = results[:k]
            if candidates.report is not None:
                reports[discoverer.name] = candidates.report
        self._last.reports = reports
        return found

    def select(self, names: Sequence[str] | None = None) -> list[Discoverer]:
        """The discoverers *names* asks for, in that order (all when
        None); ``KeyError`` for a name this index does not hold."""
        if names is None:
            return list(self._discoverers)
        by_name = {d.name: d for d in self._discoverers}
        missing = sorted(set(names) - set(by_name))
        if missing:
            raise KeyError(f"unknown discoverers: {missing}; have {sorted(by_name)}")
        return [by_name[name] for name in names]

    def search_merged(
        self,
        query: Table,
        k: int = 10,
        query_column: str | None = None,
    ) -> list[DiscoveryResult]:
        """The union of all discoverers' result sets (the integration set
        construction of Sec. 3.1)."""
        per_discoverer = self.search(query, k=k, query_column=query_column)
        return merge_result_sets(list(per_discoverer.values()))

    def retrieval_reports(self) -> dict[str, dict]:
        """The calling thread's last search, per discoverer: what its
        retrieval did (``discover --explain``)."""
        return {name: report.to_json() for name, report in self._last.reports.items()}

    # ------------------------------------------------------------------
    # Warm start from a persistent lake store (repro.store)
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store,
        discoverers: Sequence[Discoverer] | None = None,
    ) -> "LakeIndex":
        """A ready-to-search index hydrated from a :class:`~repro.store.LakeStore`.

        *store* may be a ``LakeStore`` or a path to one.  Persisted fitted
        discoverer indexes (saved by ``LakeStore.save_indexes`` at the
        store's current lake version) are unpickled and used as-is; any
        requested discoverer without a persisted index is fitted against
        the store's hydrated lake -- whose statistics snapshots make that
        fit free of raw-cell re-scans.  With ``discoverers=None`` the
        persisted roster is used verbatim (an error if none exist: nothing
        was ever built to warm-start from).

        The candidate engine is :meth:`LakeStore.load_engine
        <repro.store.LakeStore.load_engine>`'s: its token channel is built
        once, from the stats snapshots' token sets, with no table hydrated
        and no segment decoded.
        """
        from ..store.lakestore import LakeStore, StoreError

        if not isinstance(store, LakeStore):
            store = LakeStore.open(store)
        lake = store.lake()
        with trace.span("index.hydrate") as hydrate_span:
            persisted = store.load_indexes()
            hydrate_span.add(indexes=len(persisted))
        if discoverers is None:
            if not persisted:
                raise StoreError(
                    f"store at {store.path} has no persisted discoverer indexes "
                    f"for lake version {store.lake_version}; run an index build "
                    f"first or pass explicit discoverers"
                )
            roster = list(persisted.values())
        else:
            roster = [persisted.get(d.name, d) for d in discoverers]
        index = cls(lake, roster)
        index._engine = engine = store.load_engine(lake=lake, stats=index.stats)
        for discoverer in roster:
            if discoverer.is_fitted:
                discoverer.bind_engine(engine)
            else:
                index._fit(discoverer, lake, engine)
        index._built = True
        return index

    def save_to_store(self, store) -> None:
        """Persist every fitted discoverer index into a
        :class:`~repro.store.LakeStore` (building first if needed), pinned
        to the store's current lake version for staleness detection."""
        if not self._built:
            self.build()
        store.save_indexes(self._discoverers)

