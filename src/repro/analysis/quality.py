"""Integration-quality comparison: the metrics behind experiment E9.

The paper's central argument is that Full Disjunction is the better
integration semantics: it maximizes connections among facts, is associative
(order-independent), and its completer tuples make downstream tasks work.
This module turns each of those claims into a measurable quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..integration.tuples import IntegratedTable, cell_key, subsumes
from ..table.table import Table
from .stats import fact_coverage, null_profile

__all__ = ["IntegrationReport", "compare_integrations", "information_dominates", "order_variability"]


@dataclass(frozen=True)
class IntegrationReport:
    """Scalar quality summary of one integration result."""

    algorithm: str
    tuples: int
    columns: int
    nulls: int
    missing_nulls: int
    produced_nulls: int
    completeness: float
    merged_tuples: int
    mean_sources: float

    @classmethod
    def from_integrated(cls, table: IntegratedTable) -> "IntegrationReport":
        nulls = null_profile(table)
        coverage = fact_coverage(table.provenance)
        return cls(
            algorithm=table.algorithm or "unknown",
            tuples=table.num_rows,
            columns=table.num_columns,
            nulls=nulls.nulls,
            missing_nulls=nulls.missing,
            produced_nulls=nulls.produced,
            completeness=round(nulls.completeness, 4),
            merged_tuples=int(coverage["merged_tuples"]),
            mean_sources=round(float(coverage["mean_sources"]), 4),
        )


def compare_integrations(results: Sequence[IntegratedTable]) -> Table:
    """Side-by-side report table for several integration results."""
    rows = []
    for result in results:
        report = IntegrationReport.from_integrated(result)
        rows.append(
            (
                report.algorithm,
                report.tuples,
                report.columns,
                report.nulls,
                report.missing_nulls,
                report.produced_nulls,
                report.completeness,
                report.merged_tuples,
                report.mean_sources,
            )
        )
    return Table(
        [
            "algorithm",
            "tuples",
            "columns",
            "nulls",
            "missing",
            "produced",
            "completeness",
            "merged_tuples",
            "mean_sources",
        ],
        rows,
        name="integration_comparison",
    )


def information_dominates(fd: Table, other: Table) -> bool:
    """Does every tuple of *other* appear in *fd* up to subsumption?

    This is the formal sense in which FD loses nothing relative to outer
    join: each outer-join tuple is subsumed by (or equal to) some FD tuple.
    Requires both tables to share a header (aligned integration results).
    """
    if set(other.columns) != set(fd.columns):
        return False
    positions = [other.column_index(c) for c in fd.columns]
    fd_rows = list(fd.rows)
    for row in other.rows:
        reordered = tuple(row[p] for p in positions)
        if not any(subsumes(fd_row, reordered) for fd_row in fd_rows):
            return False
    return True


def order_variability(results: Sequence[IntegratedTable]) -> dict[str, object]:
    """How much a (non-associative) operator's output varies across table
    orders: number of distinct outputs and the tuple-count range.

    Row content is compared null-kind-insensitively and order-insensitively;
    an associative operator (FD) yields exactly one distinct output.
    """
    signatures = set()
    counts = []
    for result in results:
        # Canonicalize column order first -- different table orders produce
        # different outer-union header orders for the *same* relation.
        ordered_columns = tuple(sorted(result.columns))
        positions = [result.column_index(c) for c in ordered_columns]
        signature = frozenset(
            tuple(cell_key(row[p]) for p in positions) for row in result.rows
        )
        signatures.add((ordered_columns, signature))
        counts.append(result.num_rows)
    return {
        "orders_tried": len(results),
        "distinct_outputs": len(signatures),
        "min_tuples": min(counts) if counts else 0,
        "max_tuples": max(counts) if counts else 0,
    }
