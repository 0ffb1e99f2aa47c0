"""The retrieval contract between discoverers and the candidate engine.

Every discoverer declares a :class:`CandidateSpec` -- *which* lake-wide
signals can surface its candidates (token overlap, normalized-value
overlap, MinHash sketch containment, published semantic labels, or an
honest "exhaustive": nothing sublinear is sound for this scoring) and
*how many* candidates it needs (budget cap, exhaustive fallback floor).
The engine answers with a :class:`CandidateSet`: the tables the scoring
phase is allowed to touch, plus per-column evidence the scorer may reuse
so retrieval work is never repeated.

The judgement
-------------
What a spec's floor and budget make of a retrieval is decided in one
place, :func:`judge`, a pure function of the spec, ``k``, the budget,
the retrieved tables ranked by :func:`rank` and the lake's tables.  The
engine calls it over one lake's evidence; the sharded reducer
(:mod:`repro.shard.index`) calls it over the union of its shards'
evidence, so a sharded lake cannot judge differently from a plain one.

``budget`` caps how many candidate *tables* reach the scoring phase
(ranked by retrieval evidence, name-tiebroken); ``None`` means unbudgeted
-- every retrieved candidate is scored, which is what keeps the
channel-soundness guarantee ("retrieval is a superset of every table the
scorer could rank") an *identical top-k* guarantee.  A budget is an
explicit recall trade-off; the engine-wide ``default_budget`` (the CLI's
``--candidate-budget``) applies to any spec that doesn't pin its own.

``min_candidates`` is the exhaustive-fallback floor: when retrieval
surfaces fewer tables, the scorer gets the whole lake instead (evidence
retained).  ``min_candidates_is_k`` ties the floor to the query's ``k``
-- TUS's "type-only matches still need consideration" rule.  The floor
is judged on what retrieval *surfaced*, before any budget: a budget
below the floor caps scoring at the budget rather than snapping back to
a full-lake scan (budget and fallback never combine).

Two facts make the judgement splittable across disjoint parts of a lake
(pinned by ``tests/property/test_judgement.py``): the retrieved counts
of the parts add up to the whole's, and the whole's top-``budget``
tables inside one part are a prefix of that part's own ranking -- so a
part that scores its own top-``budget`` never drops a table the whole
keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Collection, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..table.table import Table

__all__ = [
    "CandidateSpec",
    "CandidateSet",
    "RetrievalReport",
    "CHANNELS",
    "judge",
    "rank",
]

#: The retrieval channels the engine understands.  ``labels`` and
#: ``sketch`` need query-side state only the discoverer can produce
#: (annotations, signatures + thresholds), so discoverers using them
#: override ``Discoverer._candidates``; ``tokens`` / ``values`` /
#: ``exhaustive`` are served generically from the query's cached stats.
CHANNELS = ("tokens", "values", "sketch", "labels", "exhaustive")


@dataclass(frozen=True)
class CandidateSpec:
    """One discoverer's declared retrieval contract."""

    channels: tuple[str, ...] = ("exhaustive",)
    #: Probe only the user's intent/join column when one is given (JOSIE,
    #: LSH Ensemble); ``False`` probes every query column regardless (TUS).
    intent_only: bool = True
    #: Exhaustive-fallback floor: fewer retrieved tables than this and the
    #: scorer receives the whole lake.
    min_candidates: int = 0
    #: Tie the fallback floor to the query's ``k`` instead.
    min_candidates_is_k: bool = False
    #: Cap on candidate tables handed to scoring (None = unbudgeted; the
    #: engine-wide default_budget fills in when unset).
    budget: int | None = None
    #: Human-readable soundness note (shown by ``discover --explain``).
    note: str = ""

    def __post_init__(self) -> None:
        unknown = [c for c in self.channels if c not in CHANNELS]
        if unknown:
            raise ValueError(f"unknown candidate channels {unknown}; known: {CHANNELS}")
        if not self.channels:
            raise ValueError("a CandidateSpec needs at least one channel")
        if self.min_candidates < 0:
            raise ValueError("min_candidates must be >= 0")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive (or None for unbudgeted)")

    @property
    def exhaustive(self) -> bool:
        return "exhaustive" in self.channels

    def floor(self, k: int) -> int:
        """The effective exhaustive-fallback floor for a top-*k* query."""
        return k if self.min_candidates_is_k else self.min_candidates

    def effective_budget(self, default: int | None) -> int | None:
        """The budget a retrieval under this spec is judged with: its
        own, else *default* (the engine-wide ``--candidate-budget``)."""
        return self.budget if self.budget is not None else default


@dataclass(frozen=True)
class RetrievalReport:
    """What one retrieval did -- the ``discover --explain`` record."""

    discoverer: str
    channels: tuple[str, ...]
    probes: int            # channel probes executed (columns x channels)
    retrieved: int         # distinct tables with retrieval evidence
    scored: int            # tables handed to the scoring phase
    lake_size: int
    fallback: bool = False
    truncated: bool = False
    exhaustive: bool = False

    def to_json(self) -> dict[str, Any]:
        return {
            "discoverer": self.discoverer,
            "channels": list(self.channels),
            "probes": self.probes,
            "retrieved": self.retrieved,
            "scored": self.scored,
            "lake_size": self.lake_size,
            "fallback": self.fallback,
            "truncated": self.truncated,
            "exhaustive": self.exhaustive,
        }


def rank(totals: Mapping[str, float]) -> dict[str, float]:
    """*totals* (retrieved table -> evidence strength) in the order every
    judgement ranks by: ``(-strength, name)``."""
    return {t: totals[t] for t in sorted(totals, key=lambda t: (-totals[t], t))}


def judge(
    discoverer: str,
    spec: CandidateSpec,
    k: int,
    default_budget: int | None,
    ranking: Iterable[str],
    lake: Collection[str],
    probes: int,
    retrieved: int | None = None,
) -> tuple[tuple[str, ...], RetrievalReport]:
    """The retrieval policy: the tables a top-*k* scorer gets out of
    *ranking* (the retrieved tables, :func:`rank` order) over *lake* (every
    table name), and the report of that decision.

    Fewer retrieved tables than ``spec.floor(k)`` and the scorer gets the
    whole lake (``fallback``); otherwise the budget keeps the top of the
    ranking (``truncated`` when it drops any).  *probes* counts what the
    query side probed.  *retrieved* stands in for ``len(ranking)`` when
    only the count is known -- a sharded lake without a budget ships no
    rankings -- and the kept tables are then the lake on a fallback and
    empty otherwise.
    """
    ranked = tuple(ranking)
    count = len(ranked) if retrieved is None else retrieved
    budget = spec.effective_budget(default_budget)
    fallback = count < spec.floor(k)
    truncated = not fallback and budget is not None and count > budget
    report = RetrievalReport(
        discoverer=discoverer,
        channels=spec.channels,
        probes=probes,
        retrieved=count,
        scored=len(lake) if fallback else budget if truncated else count,
        lake_size=len(lake),
        fallback=fallback,
        truncated=truncated,
    )
    return (tuple(lake) if fallback else ranked[:budget]), report


@dataclass
class CandidateSet:
    """The retrieval phase's answer: tables to score, evidence to reuse.

    ``evidence`` maps a probe label (``"tokens:City"``) to per-column-key
    match strengths (key ids resolve through the engine's column
    registry).  ``evidence is None`` means *no retrieval ran at all* (the
    engine was forced exhaustive): scorers that normally consume evidence
    must recompute it from the shared stats -- that recompute path is the
    full-scan baseline the equivalence tests and benchmarks compare
    against.  ``context`` carries retrieval-phase scratch (a query
    annotation, a join-key map) to the scoring phase so nothing is
    derived twice per query.  ``ranking`` is what :func:`judge` was
    handed: every retrieved table with its strength, in :func:`rank`
    order (``None`` when no judgement ran: an exhaustive scan, an
    unprobeable query).

    :meth:`table` is a scorer's only way to a table's cells: it serves
    the names in ``tables`` from the engine's lake (``_lake``) and
    refuses every other name, so a scorer cannot reach past retrieval.
    """

    tables: tuple[str, ...]
    evidence: dict[str, dict[int, float]] | None
    _lake: Mapping[str, "Table"] = field(repr=False, compare=False)
    report: RetrievalReport | None = None
    context: dict[str, Any] = field(default_factory=dict)
    ranking: dict[str, float] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._table_set = frozenset(self.tables)

    @property
    def fallback(self) -> bool:
        return self.report is not None and self.report.fallback

    @property
    def truncated(self) -> bool:
        return self.report is not None and self.report.truncated

    def unfloored(self, budget: int | None) -> "CandidateSet":
        """The top-*budget* of the ranking, evidence kept, where the
        fallback floor widened this set to the whole lake -- what a shard
        scores in round one, since only the whole lake's count may trip
        the floor.  Otherwise (no fallback, or no judgement) this set;
        the report stays the record of the engine's own judgement."""
        if self.ranking is None or not self.fallback:
            return self
        return replace(self, tables=tuple(self.ranking)[:budget])

    def __contains__(self, table: object) -> bool:
        return table in self._table_set

    def __iter__(self) -> Iterator[str]:
        return iter(self.tables)

    def __len__(self) -> int:
        return len(self.tables)

    @property
    def table_set(self) -> frozenset[str]:
        return self._table_set

    def table(self, name: str) -> "Table":
        """The retrieved table *name*; ``KeyError`` for any name retrieval
        did not return."""
        if name not in self._table_set:
            raise KeyError(f"table {name!r} is not in this candidate set")
        return self._lake[name]

    def evidence_for(self, label: str) -> dict[int, float]:
        """Evidence of one probe (empty when the probe found nothing)."""
        if self.evidence is None:
            raise KeyError(
                "candidate set carries no retrieval evidence (exhaustive "
                "scan); scorers must recompute from shared stats"
            )
        return self.evidence.get(label, {})

    def __repr__(self) -> str:
        mode = "exhaustive" if self.evidence is None else f"{len(self.tables)} tables"
        return f"CandidateSet({mode}, fallback={self.fallback})"
