"""Record model for entity resolution.

ER operates on *records*: dictionaries of attribute values plus a stable id.
:func:`records_from_table` lifts any table (integrated or raw) into records,
using the row's OID position so results can be traced back to figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..table.table import Table
from ..table.values import Cell, is_null

__all__ = ["Record", "records_from_table"]


@dataclass(frozen=True)
class Record:
    """One ER record: id plus attribute values (nulls included)."""

    record_id: str
    values: tuple[tuple[str, Cell], ...]

    @classmethod
    def from_mapping(cls, record_id: str, values: Mapping[str, Cell]) -> "Record":
        return cls(record_id=record_id, values=tuple(values.items()))

    def get(self, attribute: str) -> Cell | None:
        """Value of *attribute*, or None when the record lacks it."""
        for name, value in self.values:
            if name == attribute:
                return value
        return None

    def non_null_attributes(self) -> tuple[str, ...]:
        """Attributes carrying an actual value (nulls excluded)."""
        return tuple(name for name, value in self.values if not is_null(value))


def records_from_table(table: Table, id_prefix: str = "f") -> list[Record]:
    """One record per row; ids are ``f1, f2, ...`` in row order (matching the
    OIDs of an :class:`~repro.integration.tuples.IntegratedTable`)."""
    records = []
    for i, row in enumerate(table.rows):
        records.append(
            Record(
                record_id=f"{id_prefix}{i + 1}",
                values=tuple(zip(table.columns, row)),
            )
        )
    return records


def attributes_of(records: Iterable[Record]) -> list[str]:
    """The union of attribute names across records, first-seen order."""
    seen: dict[str, None] = {}
    for record in records:
        for name, _ in record.values:
            seen.setdefault(name)
    return list(seen)
