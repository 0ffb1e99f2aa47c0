"""The DIALITE pipeline: discover -> align & integrate -> analyze.

:class:`Dialite` wires every substrate together behind the three-stage API
of the paper's Figure 1.  Each stage is independently callable (the demo's
three demonstration items) and each stage's machinery is swappable through
registries:

* ``discoverers`` -- defaults: SANTOS union search + LSH Ensemble join
  search (+ JOSIE available by name); add your own with
  :meth:`add_discoverer`, including bare similarity functions (Fig. 4);
* ``integrators`` -- default ALITE Full Disjunction on the interned
  partition-first kernel; outer/inner join and union pre-registered for
  comparison (Fig. 6);
* ``apps`` -- describe / aggregation / correlation / entity resolution.

Typical use::

    from repro import Dialite
    from repro.datalake import DataLake

    pipeline = Dialite(DataLake.from_dir("my_lake/")).fit()
    outcome = pipeline.discover(query_table, k=5, query_column="City")
    integrated = pipeline.integrate(outcome.integration_set)
    stats = pipeline.analyze(integrated, "correlation",
                             columns=["Vaccination Rate", "Death Rate"])
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..alignment.aligner import Alignment, HolisticAligner
from ..analysis.apps import (
    AggregationApp,
    AnalysisApp,
    CorrelationApp,
    DescribeApp,
    EntityResolutionApp,
    HistogramApp,
    PivotApp,
)
from ..datalake.catalog import DataLake
from ..datalake.indexer import LakeIndex
from ..discovery.base import Discoverer, merge_result_sets
from ..discovery.custom import FunctionDiscoverer
from ..discovery.josie import JosieJoinSearch
from ..discovery.lshensemble import LSHEnsembleJoinSearch
from ..discovery.santos import SantosUnionSearch
from ..genquery.generator import generate_query_table
from ..integration.alite import AliteFD
from ..integration.base import Integrator
from ..integration.outerjoin import (
    InnerJoinIntegrator,
    OuterJoinIntegrator,
    UnionIntegrator,
)
from ..integration.tuples import IntegratedTable
from ..obs import trace
from ..table.table import Table
from .registry import Registry
from .results import DiscoveryOutcome, PipelineResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store.lakestore import LakeStore

__all__ = ["Dialite"]


class Dialite:
    """The end-to-end table discovery & integration system."""

    def __init__(
        self,
        lake: DataLake | Mapping[str, Table] | Sequence[Table] | None = None,
        discoverers: Sequence[Discoverer] | None = None,
        aligner: HolisticAligner | None = None,
        default_integrator: str | None = None,
        store: "str | Path | LakeStore | None" = None,
        candidate_budget: int | None = None,
    ):
        if store is not None:
            if isinstance(store, (str, Path)):
                from ..shard.store import open_any_store

                store = open_any_store(store)  # whichever layout lives there
            if lake is None:
                lake = store.lake()
        self._store = store
        if lake is None:
            lake = DataLake()
        elif not isinstance(lake, DataLake):
            if isinstance(lake, Mapping):
                lake = DataLake.from_tables(lake.values())
            else:
                lake = DataLake.from_tables(lake)
        self.lake = lake
        self.aligner = aligner or HolisticAligner()
        #: Engine-wide candidate budget (the CLI's ``--candidate-budget``);
        #: None = unbudgeted retrieval, the identical-top-k default.
        self.candidate_budget = candidate_budget

        self.discoverers: Registry[Discoverer] = Registry("discoverer")
        for discoverer in discoverers if discoverers is not None else (
            SantosUnionSearch(),
            LSHEnsembleJoinSearch(),
            JosieJoinSearch(),
        ):
            self.discoverers.register(discoverer.name, discoverer)

        self.integrators: Registry[Integrator] = Registry("integrator")
        for integrator in (
            AliteFD(),
            OuterJoinIntegrator(),
            InnerJoinIntegrator(),
            UnionIntegrator(),
        ):
            self.integrators.register(integrator.name, integrator)
        self.default_integrator = default_integrator or "alite_fd"
        self.integrators.get(self.default_integrator)  # validate eagerly

        self.apps: Registry[AnalysisApp] = Registry("analysis app")
        for app in (
            DescribeApp(),
            AggregationApp(),
            CorrelationApp(),
            EntityResolutionApp(),
            HistogramApp(),
            PivotApp(),
        ):
            self.apps.register(app.name, app)

        #: The fitted index; None until :meth:`fit`, or the roster changed.
        self._index: Any | None = None

    @classmethod
    def open(cls, store_path: "str | Path | LakeStore", **options: Any) -> "Dialite":
        """A pipeline warm-started from a persistent lake store.

        Sharded layouts (a ``lake.json`` manifest-of-manifests written by
        ``repro store shard init`` / :class:`repro.shard.ShardedLakeStore`)
        are auto-detected; discovery then runs scatter-gather across the
        shards with byte-identical results.

        The lake is served lazily from the store's columnar segments with
        all column statistics pre-hydrated, and :meth:`fit` reuses any
        persisted fitted discoverer indexes -- so a process goes from zero
        to serving discovery queries without re-scanning a single cell.
        Build the store with ``repro index build``, or ``ingest`` into it
        and :meth:`fit`: what a fit had to fit, it persists.
        """
        return cls(store=store_path, **options)

    def serve(self, **options: Any) -> "Any":
        """This pipeline as a concurrent serving session
        (:class:`repro.service.LakeService`): a worker pool with bounded
        admission and deadlines, a lake-version-keyed result cache,
        single-flight execution of identical concurrent requests, and --
        for store-backed pipelines -- a hot-swap reload path that follows
        on-disk ingests.  Keyword options are forwarded to
        ``LakeService`` (``workers``, ``queue_depth``,
        ``cache_capacity``, ...).
        """
        from ..service import LakeService

        return LakeService(pipeline=self, **options)

    @classmethod
    def with_all_discoverers(
        cls, lake: DataLake | Mapping[str, Table] | Sequence[Table] | None = None
    ) -> "Dialite":
        """A pipeline carrying every built-in discoverer: the paper's three
        (SANTOS, LSH Ensemble, JOSIE) plus the related-work reproductions
        (Starmie-, TUS- and COCOA-style)."""
        from ..discovery.cocoa import CocoaJoinSearch
        from ..discovery.starmie import StarmieUnionSearch
        from ..discovery.tus import TusUnionSearch

        return cls(
            lake,
            discoverers=(
                SantosUnionSearch(),
                LSHEnsembleJoinSearch(),
                JosieJoinSearch(),
                StarmieUnionSearch(),
                TusUnionSearch(),
                CocoaJoinSearch(),
            ),
        )

    # ------------------------------------------------------------------
    # Extensibility (paper Sec. 3.2)
    # ------------------------------------------------------------------
    def add_discoverer(
        self,
        discoverer: Discoverer | Callable[[Table, Table], float],
        name: str | None = None,
        replace: bool = False,
    ) -> Discoverer:
        """Register a discoverer, or wrap a bare ``f(query, candidate) ->
        float`` similarity function (the Fig. 4 extensibility path).  An
        index fitted for the old roster is closed; the next
        :meth:`discover` (or :meth:`fit`) fits the newcomer and reuses
        what the store persists for the rest."""
        if not isinstance(discoverer, Discoverer):
            discoverer = FunctionDiscoverer(discoverer, name=name or "user_defined")
        elif name is not None:
            discoverer.name = name
        self.discoverers.register(discoverer.name, discoverer, replace=replace)
        if self._index is not None:
            self._index.close()  # pools and leases; refit lazily, new roster
            self._index = None
        return discoverer

    def add_integrator(self, integrator: Integrator, replace: bool = False) -> Integrator:
        """Register an integration operator (the Fig. 6 path)."""
        return self.integrators.register(integrator.name, integrator, replace=replace)

    def add_app(self, app: AnalysisApp, replace: bool = False) -> AnalysisApp:
        """Register a downstream analysis application."""
        return self.apps.register(app.name, app, replace=replace)

    # ------------------------------------------------------------------
    # Stage 0: query acquisition
    # ------------------------------------------------------------------
    def generate_query(self, prompt: str, **options: Any) -> Table:
        """Prompt -> query table (the GPT-3 substitute, Fig. 5)."""
        return generate_query_table(prompt, **options)

    # ------------------------------------------------------------------
    # Stage 1: discover
    # ------------------------------------------------------------------
    def fit(self, previous_index: "Any | None" = None) -> "Dialite":
        """Build all discovery indexes offline (idempotent); returns self.

        With a backing store (:meth:`open`) the index is what the store's
        ``open_index`` answers: persisted discoverer indexes are hydrated
        instead of rebuilt, discoverers without one (e.g. newly registered
        ones) are fitted against the hydrated lake, warm, and persisted (a
        store that moved on meanwhile refuses: ``StoreError``).
        *previous_index* (a still-serving index over the same lake, the
        hot-reload path) donates what did not move: on a sharded store
        every unchanged shard, so a single-table ingest rebuilds one.
        """
        roster = self.discoverers.components()
        if self._store is None:
            index = LakeIndex(self.lake, roster).build()
        else:
            index = self._store.open_index(roster, previous=previous_index)
        for discoverer in index.discoverers:
            # Hydrated instances replace the cold constructor defaults so
            # the registry and the index agree (sharded: the prototypes).
            self.discoverers.register(discoverer.name, discoverer, replace=True)
        index.set_candidate_budget(self.candidate_budget)
        if self._index is not None:
            self._index.close()  # leases are refcounted: what it donated lives on
        self._index = index
        return self

    @property
    def index(self) -> "Any":
        """The discovery index: a :class:`LakeIndex`, or a
        :class:`~repro.shard.ShardedLakeIndex` over a sharded store (both
        expose ``search`` / ``search_merged`` / ``retrieval_reports`` /
        ``set_candidate_budget`` / ``fitted`` / ``health`` / ``close``)."""
        if self._index is None:
            self.fit()
        assert self._index is not None
        return self._index

    def discover(
        self,
        query: Table,
        k: int = 10,
        query_column: str | None = None,
        discoverer_names: Sequence[str] | None = None,
    ) -> DiscoveryOutcome:
        """Find related tables and form the integration set (Sec. 2.1).

        The integration set is the query plus the union of every requested
        discoverer's top-k (overlapping results deduplicated), preserving
        the merged ranking order.  The outcome names it; its tables are
        read from the lake when ``outcome.integration_set`` is first asked
        for (``integrate`` does), so discovering alone loads no table.
        """
        if query.name in self.lake:
            raise ValueError(
                f"query table name {query.name!r} collides with a lake table; rename it"
            )
        with trace.span("pipeline.discover", query=query.name, k=k) as discover_span:
            per_discoverer = self.index.search(
                query, k=k, query_column=query_column, discoverer_names=discoverer_names
            )
            merged = merge_result_sets(list(per_discoverer.values()))
            discover_span.add(
                discoverers=len(per_discoverer), integration_set=len(merged) + 1
            )
        reports = self.index.retrieval_reports()
        return DiscoveryOutcome(
            query=query,
            per_discoverer=per_discoverer,
            merged=merged,
            lake=self.lake,
            retrieval={name: reports[name] for name in per_discoverer if name in reports},
            # Shards that stayed dead through the supervised retry.
            degraded_shards=self.index.last_degraded_shards,
        )

    # ------------------------------------------------------------------
    # Stage 2: align & integrate
    # ------------------------------------------------------------------
    def align(self, tables: Sequence[Table]) -> Alignment:
        """Holistic schema matching only (inspectable intermediate)."""
        with trace.span("pipeline.align", tables=len(tables)):
            return self.aligner.align(tables)

    def integrate(
        self,
        tables: Sequence[Table] | DiscoveryOutcome,
        integrator: str | Integrator | None = None,
        align: bool = True,
        name: str = "integrated",
    ) -> IntegratedTable:
        """Align (optionally) and integrate an integration set (Sec. 2.2).

        *tables* may be a plain list (the traditional given-integration-set
        scenario) or a :class:`DiscoveryOutcome`.  ``align=False`` skips
        matching for pre-aligned inputs (shared columns already share
        names).
        """
        if isinstance(tables, DiscoveryOutcome):
            tables = tables.integration_set
        if isinstance(integrator, Integrator):
            chosen = integrator
        else:
            chosen = self.integrators.get(integrator or self.default_integrator)
        tables = list(tables)
        with trace.span(
            "pipeline.integrate", tables=len(tables), integrator=chosen.name
        ):
            if align:
                with trace.span("pipeline.align", tables=len(tables)):
                    tables = self.aligner.align(tables).apply(tables)
            return chosen.integrate(tables, name=name)

    # ------------------------------------------------------------------
    # Stage 3: analyze
    # ------------------------------------------------------------------
    def analyze(self, table: Table, app: str = "describe", **options: Any) -> Any:
        """Run a downstream application over an integrated table (Sec. 2.3)."""
        return self.apps.get(app).run(table, **options)

    def explain(self, integrated: IntegratedTable, oid: str) -> Table:
        """Attribute-level lineage of one integrated fact (``oid = "f3"``):
        which source tuples contributed each value, and why nulls are null.
        Works on results produced by the default (ALITE) integrator."""
        from ..integration.explain import explain_fact

        return explain_fact(integrated, oid)

    # ------------------------------------------------------------------
    # End to end
    # ------------------------------------------------------------------
    def run(
        self,
        query: Table,
        k: int = 10,
        query_column: str | None = None,
        integrator: str | None = None,
        analyses: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> PipelineResult:
        """Discover, integrate and (optionally) analyze in one call.

        *analyses* maps app name -> options, e.g. ``{"correlation":
        {"columns": ["Vaccination Rate", "Death Rate"]}}``.
        """
        discovery = self.discover(query, k=k, query_column=query_column)
        integrated = self.integrate(discovery, integrator=integrator)
        results: dict[str, Any] = {}
        for app_name, options in (analyses or {}).items():
            results[app_name] = self.analyze(integrated, app_name, **dict(options))
        return PipelineResult(discovery=discovery, integrated=integrated, analyses=results)
