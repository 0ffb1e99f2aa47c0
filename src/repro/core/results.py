"""Result objects for the pipeline stages.

Each stage returns a structured, inspectable object -- the demo lets users
"interact with the system after each step so that they can validate the
intermediate results" (Sec. 2.4), and these objects are what there is to
inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from ..discovery.base import DiscoveryResult
from ..integration.tuples import IntegratedTable
from ..table.table import Table

__all__ = ["DiscoveryOutcome", "PipelineResult"]


@dataclass
class DiscoveryOutcome:
    """The discover stage's output: per-discoverer results, their union, and
    the resulting integration set (query table included, as in Sec. 2.1).
    What comes back is a ranked list of names; its tables are read from
    :attr:`lake` when :attr:`integration_set` or :meth:`select` asks."""

    query: Table
    per_discoverer: dict[str, list[DiscoveryResult]]
    merged: list[DiscoveryResult]
    #: Where the discovered tables live (a stored lake decodes on access).
    lake: Mapping[str, Table] = field(repr=False)
    #: Per-discoverer retrieval accounting for this query: candidate
    #: counts before scoring, channels used, fallback/truncation flags
    #: (what ``discover --explain`` prints).
    retrieval: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Shard ids omitted from this answer because their workers failed
    #: even after a respawn + retry (sharded lakes only; empty means the
    #: answer is complete).  Degraded outcomes are served but never
    #: cached -- see :mod:`repro.service.service`.
    degraded_shards: tuple[int, ...] = ()

    @property
    def discovered_names(self) -> list[str]:
        return [result.table_name for result in self.merged]

    @cached_property
    def integration_set(self) -> list[Table]:
        """The query followed by every discovered table in merged ranking
        order, loaded from the lake on first access and kept."""
        return [self.query] + [self.lake[name] for name in self.discovered_names]

    def select(self, names: list[str]) -> list[Table]:
        """A user-chosen subset of the integration set (query always kept),
        mirroring the demo's 'select a subset of the discovered tables'.
        Only the chosen tables are loaded."""
        discovered = self.discovered_names
        unknown = set(names) - {self.query.name, *discovered}
        if unknown:
            raise KeyError(f"not in the integration set: {sorted(unknown)}")
        chosen = set(names)
        return [self.query] + [self.lake[n] for n in discovered if n in chosen]

    def summary(self) -> Table:
        """One row per discovered table: score, who found it, why."""
        rows = [
            (r.table_name, round(r.score, 4), r.discoverer, r.reason)
            for r in self.merged
        ]
        return Table(["table", "score", "best_discoverer", "reason"], rows, name="discovery")


@dataclass
class PipelineResult:
    """End-to-end run: everything each stage produced."""

    discovery: DiscoveryOutcome
    integrated: IntegratedTable
    analyses: dict[str, Any] = field(default_factory=dict)

    @property
    def integration_set_names(self) -> list[str]:
        return [self.discovery.query.name, *self.discovery.discovered_names]
