"""The discovery API: what every table-search algorithm implements.

DIALITE is explicitly pluggable here (Sec. 3.2 / Fig. 4 of the paper): a
discoverer is anything that can be fitted to a lake (``{name: Table}``) and
answer top-k searches for a query table.  The pipeline persists the union of
the result sets of *all* configured discoverers to form the integration set
(Sec. 3.1: "we persist the set of tables found by all techniques").

Two-phase search contract
-------------------------
``search`` runs in two phases.  **Retrieval** asks the shared
:class:`~repro.candidates.CandidateEngine` for a candidate set under the
discoverer's declared :class:`~repro.candidates.CandidateSpec` (inverted
token/value postings, the sketch prefilter, published labels -- or an
honest ``exhaustive`` for scorers with no sound sublinear signal).
**Scoring** (``_search``) ranks *only the retrieved candidates*.  That is
structure, not convention: :meth:`fit` is the only method handed the
lake and a discoverer keeps none of it, so a scorer reaches cells only
through :meth:`CandidateSet.table <repro.candidates.CandidateSet.table>`,
which raises ``KeyError`` for any table retrieval did not return.  When
the engine is forced exhaustive -- the equivalence tests' and
benchmarks' full-scan baseline -- the candidate set is the whole lake
with no retrieval evidence, and scorers recompute what they need from
the shared column-stats cache.

The engine is *shared state*: ``LakeIndex.build`` threads one engine
through every fit; a standalone ``fit(lake)`` creates a private one.
Pickles drop the engine (it would duplicate the lake-wide structures per
discoverer); the loader (``LakeIndex.from_store``) re-attaches it with
:meth:`Discoverer.bind_engine`.

Lake-global fit state
---------------------
A scorer that needs statistics of the *whole* lake -- SANTOS's KB
synthesized from every column domain, TUS's corpus IDF -- declares them
as its **lake product**, the plug-in extension point for such state:
:meth:`Discoverer.lake_product` computes it from the lake's
:class:`~repro.datalake.stats.LakeStats` (never from cells), and
:meth:`Discoverer.fit` installs a freshly computed one unless
:meth:`Discoverer.adopt` pinned one computed elsewhere.  That is how a
sharded lake gives every shard's fit the product of the combined lake
(:mod:`repro.shard.index`) without knowing which discoverers have one.
A product is a new object per fit, never a mutation of what the
constructor was given, so an unfitted clone always refits from the
constructor's configuration.  The default has none (``None``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..candidates.spec import CandidateSet, CandidateSpec
from ..obs import trace
from ..table.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..candidates.engine import CandidateEngine
    from ..datalake.stats import LakeStats

__all__ = ["DiscoveryResult", "Discoverer", "merge_result_sets"]


@dataclass(frozen=True)
class DiscoveryResult:
    """One discovered table: who found it, how strongly, and why."""

    table_name: str
    score: float
    discoverer: str
    reason: str = ""

    def __post_init__(self) -> None:
        if self.score < 0.0:
            raise ValueError(f"negative discovery score: {self.score}")


class Discoverer(abc.ABC):
    """Base class for table-search algorithms.

    Lifecycle: construct, :meth:`fit` once against a lake (index building is
    the offline step the demo describes), then :meth:`search` any number of
    times.  Implementations must be deterministic for a fixed lake.
    """

    #: Short identifier used in results and the pipeline registry.
    name: str = "discoverer"

    #: The declared retrieval contract.  The safe default is exhaustive
    #: (score everything); sublinear discoverers override with their
    #: channels.  See :class:`~repro.candidates.CandidateSpec`.
    spec: CandidateSpec = CandidateSpec(channels=("exhaustive",))

    #: Whether :meth:`adopt` pinned this instance's lake product.  Never
    #: pickled: a persisted index is fitted, and only a fit reads it.
    _product_pinned = False

    def __init__(self) -> None:
        self._fitted = False
        self._engine: "CandidateEngine | None" = None

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def engine(self) -> "CandidateEngine | None":
        """The candidate engine this discoverer retrieves through."""
        return self._engine

    def candidate_spec(self) -> CandidateSpec:
        """The spec ``search`` retrieves under (class default; override
        for instance-dependent contracts)."""
        return self.spec

    def fit(
        self, lake: Mapping[str, Table], engine: "CandidateEngine | None" = None
    ) -> "Discoverer":
        """Build this discoverer's index over *lake*; returns self.

        *engine* is the shared candidate engine (``LakeIndex.build``
        passes one so all discoverers retrieve from the same postings /
        sketches); a standalone fit creates a private engine whose
        channels build lazily on first search.
        """
        if engine is None:
            from ..candidates.engine import CandidateEngine

            engine = CandidateEngine(dict(lake))
        self._engine = engine
        if not self._product_pinned:
            from ..datalake.stats import lake_stats  # deferred: import cycle

            self._use_product(self.lake_product(lake_stats(lake)))
        self._build_index(dict(lake))
        self._fitted = True
        return self

    def lake_product(self, stats: "LakeStats") -> Any:
        """This discoverer's lake-global fit state, computed from *stats*
        alone (see the module docstring); ``None``: it has none.  Must be
        a new object, deterministic in the lake's contents."""
        return None

    def adopt(self, product: Any) -> None:
        """Pin a :meth:`lake_product` computed elsewhere (a sharded
        build's, over the combined lake): :meth:`fit` uses it instead of
        computing one over the lake it is handed."""
        self._use_product(product)
        self._product_pinned = True

    def _use_product(self, product: Any) -> None:
        """Keep *product* where scoring reads it (a discoverer without
        one has nothing to keep)."""

    def clone_unfitted(self) -> "Discoverer":
        """An unfitted twin that keeps constructor configuration -- what
        the serving layer refits against a new lake version while this
        instance keeps serving the old one: a shallow copy with the
        fitted flag, the engine and any :meth:`adopt` pin cleared.  Every
        fit *assigns* fresh containers and a fresh lake product, so a
        refit never touches what a still-serving twin reads.
        """
        import copy

        clone = copy.copy(self)
        clone._fitted = False
        clone._engine = None
        clone.__dict__.pop("_product_pinned", None)
        return clone

    def bind_engine(self, engine: "CandidateEngine") -> None:
        """Attach a (new) shared engine -- what the loader calls after
        unpickling, since pickles deliberately drop the engine."""
        self._engine = engine
        self._engine_bound()

    def _engine_bound(self) -> None:
        """Hook for re-publishing fit products into a freshly bound
        engine (SANTOS re-registers its label namespaces here)."""

    def _require_engine(self) -> "CandidateEngine":
        if self._engine is None:
            raise RuntimeError(
                f"discoverer {self.name!r} has no candidate engine (it was "
                f"unpickled standalone); call bind_engine(engine) or load it "
                f"through LakeIndex.from_store"
            )
        return self._engine

    @abc.abstractmethod
    def _build_index(self, lake: Mapping[str, Table]) -> None:
        """Index construction hook (lake is a private copy; keep derived
        products, never the tables)."""

    def search(
        self, query: Table, k: int = 10, query_column: str | None = None
    ) -> list[DiscoveryResult]:
        """Top-*k* lake tables related to *query*.

        *query_column* is the user's intent/join column where the algorithm
        uses one (SANTOS's intent column, LSH Ensemble / JOSIE's query
        column); algorithms that don't need it may ignore it.
        """
        return self.ranked(query, k, query_column)[0][:k]

    def ranked(
        self,
        query: Table,
        k: int,
        query_column: str | None = None,
        *,
        floored: bool = True,
    ) -> tuple[list[DiscoveryResult], CandidateSet]:
        """Both phases of :meth:`search`, under its spans: every scored
        result in ``(-score, table_name)`` order, untruncated, and the
        candidate set they were scored from.  ``floored=False`` scores
        :meth:`CandidateSet.unfloored <repro.candidates.CandidateSet.unfloored>`
        instead: a shard's round one, whose floor only the whole lake's
        count may trip (:mod:`repro.shard.worker`)."""
        if not self._fitted:
            raise RuntimeError(f"discoverer {self.name!r} used before fit()")
        if k <= 0:
            raise ValueError("k must be positive")
        with trace.span(f"discover.{self.name}", k=k):
            with trace.span("discover.candidates") as candidates_span:
                candidates = self._candidates(query, k, query_column)
                if not floored:
                    candidates = candidates.unfloored(
                        self.candidate_spec().effective_budget(
                            self._require_engine().default_budget
                        )
                    )
                candidates_span.add(candidates=len(candidates.tables))
            with trace.span("discover.score") as score_span:
                results = self._search(query, k, query_column, candidates)
                score_span.add(results=len(results))
            results.sort(key=lambda r: (-r.score, r.table_name))
        return results, candidates

    def _candidates(
        self, query: Table, k: int, query_column: str | None
    ) -> CandidateSet:
        """Phase 1: retrieve the candidate set for this query.

        The default drives the engine's generic channels from the query's
        cached stats; discoverers whose probes need algorithm-specific
        state (annotations, signatures + thresholds, join-key maps)
        override this."""
        return self._require_engine().retrieve(
            self.name, self.candidate_spec(), query, k=k, query_column=query_column
        )

    @abc.abstractmethod
    def _search(
        self,
        query: Table,
        k: int,
        query_column: str | None,
        candidates: CandidateSet,
    ) -> list[DiscoveryResult]:
        """Phase 2: score *only* the retrieved candidates; may return more
        than *k* results (caller truncates)."""

    # ------------------------------------------------------------------
    # Pickling: the engine is lake-wide shared state -- serializing it
    # per discoverer would duplicate the posting structures (and, through
    # the stats they reference, the lake) into every index pickle.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_engine"] = None
        state.pop("_product_pinned", None)
        return state


def merge_result_sets(
    result_sets: Sequence[Sequence[DiscoveryResult]],
    normalize: bool = True,
) -> list[DiscoveryResult]:
    """Union the results of several discoverers (the paper's integration-set
    construction).  A table found by multiple discoverers keeps its best
    score and accumulates the discoverer names in ``reason``.

    Scores of different discoverers live on different scales (JOSIE reports
    raw overlap counts, SANTOS a [0, 1] semantic score), so by default each
    result set is max-normalized before merging -- order within a discoverer
    is preserved, and the merged ranking becomes scale-free.  Pass
    ``normalize=False`` to merge raw scores.

    Ordering is fully deterministic: results sort by (score desc,
    table name asc, discoverer asc), and when two discoverers tie on a
    table's normalized score the alphabetically first discoverer is
    credited -- so persisted integration sets are byte-reproducible
    across runs regardless of roster iteration order.

    Multi-source inputs (the sharded reducer) may present the *same*
    ``(table, discoverer)`` pair in more than one result set -- e.g. two
    shards each returning their local score for one table.  Dedup keeps
    the **max** score for the pair: a repeat at a lower or equal score
    never displaces the credited entry (strict ``>`` on score; the ``<``
    tie-break on discoverer name is a no-op for an identical name), a
    repeat at a higher score wins, and ``found_by`` accumulates
    duplicates into a set so the reason line lists each discoverer once.
    The final (score desc, table asc, discoverer asc) sort stays a total
    order either way.
    """
    best: dict[str, DiscoveryResult] = {}
    found_by: dict[str, list[str]] = {}
    for results in result_sets:
        top = max((r.score for r in results), default=0.0)
        scale = top if (normalize and top > 0) else 1.0
        for result in results:
            found_by.setdefault(result.table_name, []).append(result.discoverer)
            scored = result.score / scale
            current = best.get(result.table_name)
            if (
                current is None
                or scored > current.score
                or (scored == current.score and result.discoverer < current.discoverer)
            ):
                best[result.table_name] = DiscoveryResult(
                    table_name=result.table_name,
                    score=scored,
                    discoverer=result.discoverer,
                    reason=result.reason,
                )
    merged = []
    for table_name, result in best.items():
        names = sorted(set(found_by[table_name]))
        merged.append(
            DiscoveryResult(
                table_name=table_name,
                score=result.score,
                discoverer=result.discoverer,
                reason=f"found by: {', '.join(names)}",
            )
        )
    merged.sort(key=lambda r: (-r.score, r.table_name, r.discoverer))
    return merged
