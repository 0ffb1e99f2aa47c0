"""The lake-wide candidate-generation engine.

One :class:`CandidateEngine` is shared by every discoverer over a lake
(:meth:`LakeIndex.build <repro.datalake.indexer.LakeIndex.build>` creates
and threads it); it owns the sublinear retrieval structures the query
path runs on:

* an **inverted token posting index** (token -> columns containing it,
  with document frequencies) built once from the shared column-stats
  cache -- JOSIE's retrieval, and the generic ``tokens`` channel;
* a **normalized-value posting index** over the columns' text values --
  COCOA's join-key index and TUS's value-overlap pruning, unified;
* a **MinHash LSH sketch prefilter** (banded ensembles memoized per
  parameter set, reusing :mod:`repro.sketch`) with a cardinality gate --
  LSH Ensemble's retrieval;
* **label postings** namespaces that semantic discoverers publish into
  (SANTOS's type / relationship maps), so even annotation-driven
  retrieval runs through one accounted structure.

Channels build lazily from :class:`~repro.datalake.stats.LakeStats` --
derived products only, never raw cells -- and nothing of them is
persisted.  Over a stored lake the token channel inverts the stats
snapshots' ``tokens`` fields (:meth:`LakeStats.token_sets
<repro.datalake.stats.LakeStats.token_sets>`) and the sketch ensembles
stack from their ``minhash`` fields, so a warm process builds them
without hydrating a table or decoding a segment
(:meth:`repro.store.LakeStore.load_engine` builds the token channel
once, counted by ``engine.build.tokens``).

``force_exhaustive`` disables retrieval engine-wide: every discoverer
scores the entire lake through its fallback path.  That is the
pre-refactor full-scan baseline the equivalence property tests and
``benchmarks/bench_candidates.py`` compare against.

What a discoverer's fallback floor and budget make of a retrieval is not
the engine's call: it hands this lake's ranking to
:func:`~repro.candidates.spec.judge` -- the function a sharded lake's
reducer calls over the union of its shards -- and returns the report on
the candidate set.  The engine keeps no ledger of its own: what it
builds and retrieves is counted in :mod:`repro.obs.metrics` (``engine.*``)
and on the ambient span, and a search's reports are the ``report`` of
the candidate sets it scored (:meth:`LakeIndex.retrieval_reports
<repro.datalake.indexer.LakeIndex.retrieval_reports>`).

Concurrent reads (the serving layer's contract)
-----------------------------------------------
One engine is shared by every worker thread of a :mod:`repro.service`
session, so the query path must be safe under concurrent *reads* after a
warm build.  The audit, structure by structure:

* **Lazy channel construction** is the one structural race: two threads
  racing ``token_postings`` / ``value_postings`` / ``ensemble_for`` would
  both build (double work, and ``engine.build.*`` would over-count -- the
  tested warm-start observable).  A build lock serializes construction;
  fully-built structures are published by a single attribute store, after
  which reads are lock-free.
* **Posting probes / registry reads / sketch queries** are pure reads of
  immutable-after-build structures -- safe.  (An ensemble sorts a
  partition's band keys on the first query that picks that band width;
  racing first queries sort equal arrays and one assignment wins.)
* **Accounting** is the registry's counters (exact under contention)
  and each retrieval's own report, returned on its candidate set --
  nothing shared is written per query.
* **Shared column stats** memoize idempotently (two racing threads compute
  equal products; one assignment wins) -- duplicated effort at worst, and
  none at all on the hydrated snapshots a warm service actually runs on.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Mapping

from ..obs import metrics, trace
from ..sketch.ensemble import LSHEnsemble
from ..sketch.minhash import MinHasher, MinHashSignature
from .postings import ColumnRegistry, PostingIndex
from .spec import CandidateSet, CandidateSpec, RetrievalReport, judge, rank

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..datalake.stats import LakeStats
    from ..table.stats import ColumnStats
    from ..table.table import Table

__all__ = ["CandidateEngine", "EngineError"]


class EngineError(RuntimeError):
    """Misuse of the candidate engine (unknown channel, bad probe)."""


class CandidateEngine:
    """Shared retrieval structures + accounting for one lake."""

    def __init__(
        self,
        lake: Mapping[str, "Table"],
        stats: "LakeStats | None" = None,
    ):
        # Deferred import: repro.datalake imports the indexer, which
        # imports the discovery base, which imports this package.
        from ..datalake.stats import lake_stats

        self._lake = lake
        self._stats = stats if stats is not None else lake_stats(lake)
        self._registry: ColumnRegistry | None = None
        self._token_postings: PostingIndex | None = None
        self._value_postings: PostingIndex | None = None
        self._ensembles: dict[tuple[int, int, int, int], LSHEnsemble] = {}
        self._labels: dict[str, Mapping[str, Iterable[str]]] = {}
        #: Query-time cap on candidate tables for specs without their own
        #: budget (the CLI's ``--candidate-budget``).  None = unbudgeted.
        self.default_budget: int | None = None
        #: Engine-wide kill switch: answer every retrieval with the whole
        #: lake (the full-scan baseline for benchmarks / equivalence tests).
        self.force_exhaustive = False
        # Serializes lazy channel construction under concurrent queries
        # (see the module docstring's audit); reads of built structures
        # never take it.
        self._build_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Lazy channel construction (derived stats only, never raw cells)
    # ------------------------------------------------------------------
    @property
    def registry(self) -> ColumnRegistry:
        if self._registry is None:
            with self._build_lock:
                if self._registry is None:
                    self._build_token_channel()
        assert self._registry is not None
        return self._registry

    @property
    def token_postings(self) -> PostingIndex:
        if self._token_postings is None:
            with self._build_lock:
                if self._token_postings is None:
                    self._build_token_channel()
        assert self._token_postings is not None
        return self._token_postings

    @property
    def value_postings(self) -> PostingIndex:
        if self._value_postings is None:
            with self._build_lock:
                if self._value_postings is None:
                    metrics.counter("engine.build.values").inc()
                    with trace.span("engine.build", channel="values"):
                        registry = self.registry
                        self._value_postings = PostingIndex.build(
                            (key, self._column_stats(key).text_values())
                            for key in range(len(registry))
                        )
        return self._value_postings

    def _build_token_channel(self) -> None:
        """One pass over the lake's cached token sets: registry + postings."""
        metrics.counter("engine.build.tokens").inc()
        with trace.span("engine.build", channel="tokens"):
            self._build_token_channel_inner()

    def _build_token_channel_inner(self) -> None:
        owners: list[tuple[str, str]] = []
        sizes: list[int] = []
        postings: dict[str, list[int]] = {}
        for table_name in self._lake:
            for column, tokens in self._stats.token_sets(table_name).items():
                key = len(owners)
                owners.append((table_name, column))
                sizes.append(len(tokens))
                for token in tokens:
                    postings.setdefault(token, []).append(key)
        self._registry = ColumnRegistry(owners, sizes)
        self._token_postings = PostingIndex(postings, sizes)

    def ensemble_for(
        self, num_perm: int, num_partitions: int, seed: int, min_size: int
    ) -> LSHEnsemble:
        """The banded sketch index under one parameter set (memoized, so
        every discoverer with matching config shares the structure).  It
        is stacked from :meth:`LakeStats.minhashes
        <repro.datalake.stats.LakeStats.minhashes>`, table by table -- a
        stored lake reads them off its stats snapshots without hydrating
        them.  *num_partitions* is part of the key and sizes nothing: an
        ensemble's partitions are size buckets."""
        params = (num_perm, num_partitions, seed, min_size)
        ensemble = self._ensembles.get(params)
        if ensemble is None:
            with self._build_lock:
                ensemble = self._ensembles.get(params)
                if ensemble is not None:
                    return ensemble
                # Counted apart from engine.build.tokens / .values, the
                # registry / posting channels.  Built fully before
                # publication, so concurrent readers only ever see a
                # complete ensemble.
                metrics.counter("engine.build.ensemble").inc()
                ensemble = LSHEnsemble(num_perm=num_perm, seed=seed)
                registry = self.registry
                entries: list[tuple[int, MinHashSignature]] = []
                for table, keys in registry.by_table.items():
                    keys = [key for key in keys if registry.token_sizes[key] >= min_size]
                    if keys:
                        columns = [registry.owner(key)[1] for key in keys]
                        signatures = self._stats.minhashes(table, columns, ensemble.hasher)
                        entries.extend(zip(keys, signatures))
                ensemble.index_signatures(entries)
                self._ensembles[params] = ensemble
        return ensemble

    def warm(self, channels: Iterable[str]) -> "CandidateEngine":
        """Materialize the posting channels *channels* now (idempotent).

        ``LakeIndex.build`` calls this with the union of the roster's
        declared channels, so index building -- not the first query --
        pays the one-time construction cost."""
        wanted = set(channels)
        if wanted & {"tokens", "sketch"}:
            self.token_postings  # sketch indexes key into the same registry
        if "values" in wanted:
            self.value_postings
        return self

    # ------------------------------------------------------------------
    # Column accessors (scoring-phase reads; all served from shared stats)
    # ------------------------------------------------------------------
    def _column_stats(self, key: int) -> "ColumnStats":
        table, column = self.registry.owner(key)
        return self._stats.column(table, column)

    def column_owner(self, key: int) -> tuple[str, str]:
        return self.registry.owner(key)

    def column_token_size(self, key: int) -> int:
        return self.registry.token_sizes[key]

    def column_tokens(self, key: int) -> frozenset[str]:
        return self._column_stats(key).tokens

    def column_text_values(self, key: int) -> frozenset[str]:
        return self._column_stats(key).text_values()

    def column_minhash(self, key: int, hasher: MinHasher) -> MinHashSignature:
        return self._column_stats(key).minhash(hasher)

    def tables(self) -> tuple[str, ...]:
        """Every lake table name, in lake order (no cell materialization)."""
        return tuple(self._lake)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def retrieve(
        self,
        discoverer: str,
        spec: CandidateSpec,
        query: "Table",
        k: int,
        query_column: str | None = None,
    ) -> CandidateSet:
        """Generic retrieval for ``tokens`` / ``values`` / ``exhaustive``
        specs, probing the query's cached column stats.  Discoverers on
        the ``sketch`` / ``labels`` channels build their probes themselves
        (signatures with thresholds, annotation labels) and assemble
        through :meth:`assemble` / :meth:`label_candidates`."""
        if self.force_exhaustive or spec.exhaustive:
            return self.all_candidates(discoverer, spec)
        with trace.span(
            "engine.retrieve", discoverer=discoverer, channels=",".join(spec.channels)
        ):
            if spec.intent_only and query_column in query.columns:
                probe_columns = [query_column]
            else:
                # No (known) intent column: probe everything.  An unknown
                # intent degrades to all-columns rather than raising, matching
                # the scorers' own probe-column selection -- discoverers that
                # want loud validation do it in their _candidates override
                # (LSH Ensemble does).
                probe_columns = list(query.columns)
            evidence: dict[str, dict[int, float]] = {}
            probes = 0
            for channel in spec.channels:
                if channel == "tokens":
                    index = self.token_postings
                    for column in probe_columns:
                        tokens = query.stats.column(column).tokens
                        if not tokens:
                            continue
                        probes += 1
                        evidence[f"tokens:{column}"] = dict(index.probe(tokens))
                elif channel == "values":
                    index = self.value_postings
                    for column in probe_columns:
                        values = query.stats.column(column).text_values()
                        if not values:
                            continue
                        probes += 1
                        evidence[f"values:{column}"] = dict(index.probe(values))
                else:
                    raise EngineError(
                        f"channel {channel!r} needs discoverer-provided probes; "
                        f"override _candidates() instead of using generic retrieve()"
                    )
            return self.assemble(discoverer, spec, evidence, k, probes=probes)

    def assemble(
        self,
        discoverer: str,
        spec: CandidateSpec,
        evidence: dict[str, dict[int, float]],
        k: int,
        probes: int | None = None,
    ) -> CandidateSet:
        """Rank evidenced tables, apply budget and fallback, record."""
        if self.force_exhaustive:
            return self.all_candidates(discoverer, spec)
        table_of = self.registry.table_of
        totals: dict[str, float] = {}
        for hits in evidence.values():
            for key, strength in hits.items():
                table = table_of[key]
                totals[table] = totals.get(table, 0.0) + strength
        return self._finalize(
            discoverer,
            spec,
            totals,
            evidence,
            k,
            probes=probes if probes is not None else len(evidence),
        )

    def label_candidates(
        self,
        discoverer: str,
        spec: CandidateSpec,
        label_queries: Mapping[str, Iterable[str]],
        k: int,
    ) -> CandidateSet:
        """Tables sharing published labels with the query, ranked by how
        many labels matched (namespace -> query labels)."""
        if self.force_exhaustive:
            return self.all_candidates(discoverer, spec)
        matched: dict[str, float] = {}
        probes = 0
        for namespace, labels in label_queries.items():
            # Probes count the query's labels, published or not: a
            # shard's count is then the whole lake's.
            published = self._labels.get(namespace, {})
            for label in labels:
                probes += 1
                for table in published.get(label, ()):
                    matched[table] = matched.get(table, 0) + 1
        return self._finalize(discoverer, spec, matched, {}, k, probes=probes)

    def _finalize(
        self,
        discoverer: str,
        spec: CandidateSpec,
        totals: Mapping[str, float],
        evidence: dict[str, dict[int, float]],
        k: int,
        probes: int,
    ) -> CandidateSet:
        """Every evidence-producing channel funnels through here: the
        spec's floor / budget judgement (:func:`~repro.candidates.spec.judge`)
        over this lake's ranking, recorded."""
        ranking = rank(totals)
        tables, report = judge(
            discoverer, spec, k, self.default_budget, ranking, self._lake, probes
        )
        self._record(report)
        return CandidateSet(
            tables=tables,
            evidence=evidence,
            _lake=self._lake,
            report=report,
            ranking=ranking,
        )

    def sketch_probe(
        self,
        signature: MinHashSignature,
        threshold: float,
        *,
        num_perm: int,
        num_partitions: int,
        seed: int,
        min_size: int,
    ) -> dict[int, float]:
        """Column key -> estimated containment, via the banded prefilter."""
        ensemble = self.ensemble_for(num_perm, num_partitions, seed, min_size)
        return {
            int(match.key): match.containment
            for match in ensemble.query(signature, threshold=threshold, k=None)
        }

    def all_candidates(self, discoverer: str, spec: CandidateSpec) -> CandidateSet:
        """The whole lake, evidence-free: the exhaustive-scan path."""
        tables = self.tables()
        report = RetrievalReport(
            discoverer=discoverer,
            channels=("exhaustive",),
            probes=0,
            retrieved=len(tables),
            scored=len(tables),
            lake_size=len(tables),
            exhaustive=True,
        )
        self._record(report)
        return CandidateSet(tables=tables, evidence=None, _lake=self._lake, report=report)

    def empty_candidates(self, discoverer: str, spec: CandidateSpec) -> CandidateSet:
        """No candidates (the query can't be probed at all -- e.g. COCOA
        without a numeric target); recorded, never falls back."""
        report = RetrievalReport(
            discoverer=discoverer,
            channels=spec.channels,
            probes=0,
            retrieved=0,
            scored=0,
            lake_size=len(self._lake),
        )
        self._record(report)
        return CandidateSet(tables=(), evidence={}, _lake=self._lake, report=report)

    # ------------------------------------------------------------------
    # Exhaustive scoring helpers (the fallback / full-scan compute paths)
    # ------------------------------------------------------------------
    def overlap_scan(
        self, tokens: frozenset[str], tables: Iterable[str] | None = None
    ) -> dict[int, int]:
        """Exact token overlap with every column of *tables* (all when
        None) -- what the posting probe computes, without the index."""
        hits: dict[int, int] = {}
        for key in self.registry.keys_of(tables):
            overlap = len(tokens & self.column_tokens(key))
            if overlap:
                hits[key] = overlap
        return hits

    def value_overlap_scan(
        self, values: Iterable[Hashable], tables: Iterable[str] | None = None
    ) -> dict[int, int]:
        """Exact normalized-value overlap with every column of *tables*."""
        probe = {str(v) for v in values}
        hits: dict[int, int] = {}
        for key in self.registry.keys_of(tables):
            overlap = len(probe & self.column_text_values(key))
            if overlap:
                hits[key] = overlap
        return hits

    def containment_scan(
        self,
        signature: MinHashSignature,
        threshold: float,
        hasher: MinHasher,
        min_size: int,
        tables: Iterable[str] | None = None,
    ) -> dict[int, float]:
        """Estimated containment against every column's signature -- the
        sketch channel without LSH banding (a superset of what the bands
        retrieve).  The cardinality gate skips columns whose size bounds
        the containment estimate below *threshold* (see
        :meth:`LSHEnsemble.query <repro.sketch.ensemble.LSHEnsemble.query>`)."""
        if signature.size == 0:
            return {}
        hits: dict[int, float] = {}
        registry = self.registry
        for key in registry.keys_of(tables):
            if registry.token_sizes[key] < min_size:
                continue
            candidate = self.column_minhash(key, hasher)
            if candidate.size == 0:
                continue
            upper = (signature.size + candidate.size) / (2.0 * signature.size)
            if upper < threshold:
                continue
            estimate = signature.containment_in(candidate)
            if estimate >= threshold:
                hits[key] = estimate
        return hits

    # ------------------------------------------------------------------
    # Label namespaces (semantic discoverers publish their fit products)
    # ------------------------------------------------------------------
    def publish_labels(
        self, namespace: str, table_sets: Mapping[str, Iterable[str]]
    ) -> None:
        """Register ``label -> table names`` under *namespace* (held by
        reference: the publisher may keep mutating during its fit)."""
        self._labels[namespace] = table_sets

    @property
    def label_namespaces(self) -> list[str]:
        return sorted(self._labels)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _record(self, report: RetrievalReport) -> None:
        # Every retrieval funnels through here (finalize / exhaustive /
        # empty), so this is where process-wide retrieval accounting and
        # per-request span attribution both attach -- once per retrieval,
        # never per posting entry.
        metrics.counter("engine.retrievals").inc()
        metrics.counter("engine.probes").inc(report.probes)
        metrics.counter("engine.retrieved_tables").inc(report.retrieved)
        for channel in report.channels:
            metrics.counter(f"engine.channel.{channel}").inc()
        if report.fallback:
            metrics.counter("engine.fallbacks").inc()
        if report.truncated:
            metrics.counter("engine.truncations").inc()
        tracer = trace.current_tracer()
        if tracer is not None and tracer.current is not None:
            tracer.current.add(
                probes=report.probes,
                retrieved=report.retrieved,
                scored=report.scored,
                fallback=int(report.fallback),
            )

    def stats(self) -> dict[str, Any]:
        """Size/shape summary of every materialized structure."""
        ensembles = [
            {
                "num_perm": num_perm,
                "num_partitions": partitions,
                "seed": seed,
                "min_size": min_size,
                "indexed_columns": len(ensemble),
                "bands": ensemble.num_bands,
            }
            for (num_perm, partitions, seed, min_size), ensemble in sorted(
                self._ensembles.items()
            )
        ]
        return {
            "tables": len(self._lake),
            "columns": len(self._registry) if self._registry is not None else None,
            "token_postings": {
                "tokens": self._token_postings.num_tokens,
                "entries": self._token_postings.num_entries,
            }
            if self._token_postings is not None
            else None,
            "value_postings": {
                "values": self._value_postings.num_tokens,
                "entries": self._value_postings.num_entries,
            }
            if self._value_postings is not None
            else None,
            "ensembles": ensembles,
            "label_namespaces": self.label_namespaces,
            "default_budget": self.default_budget,
        }

    def __repr__(self) -> str:
        built = []
        if self._token_postings is not None:
            built.append("tokens")
        if self._value_postings is not None:
            built.append("values")
        built.extend(f"sketch{params}" for params in self._ensembles)
        return (
            f"CandidateEngine({len(self._lake)} tables, "
            f"channels={built or ['<lazy>']}, budget={self.default_budget})"
        )
