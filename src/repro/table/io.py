"""CSV reading and writing for :class:`~repro.table.table.Table`.

Open-data lakes are directories of CSV files; this module is the only place
the library touches the filesystem for table data.  Reading parses cells via
:func:`repro.table.infer.parse_cell` (so numerics become numbers and blank /
"NA"-style fields become *missing* nulls); writing renders nulls back as the
paper's ``±`` / ``⊥`` markers by default so round-trips preserve null kind.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from .infer import DEFAULT_MISSING_TOKENS, parse_cell
from .table import Table
from .values import MISSING, Cell, is_null, is_produced

__all__ = ["read_csv", "write_csv", "read_lake_dir"]


def read_csv(
    path: str | Path,
    name: str | None = None,
    missing_tokens: frozenset[str] = DEFAULT_MISSING_TOKENS,
    infer_types: bool = True,
    delimiter: str | None = None,
) -> Table:
    """Load one CSV file as a :class:`Table`.

    The first row is the header.  Ragged data rows are padded (short) or
    truncated (long) to the header width with *missing* nulls -- real open
    data does contain such rows and dropping them silently would bias
    discovery statistics.

    The delimiter is sniffed from the first line (``,``, ``;``, ``\\t`` or
    ``|`` -- European open data loves semicolons) unless given explicitly.
    ``infer_types=False`` keeps every cell a raw string except for missing
    markers, which still become nulls.
    """
    path = Path(path)
    table_name = name if name is not None else path.stem
    if delimiter is None:
        delimiter = _sniff_delimiter(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            return Table.empty([], name=table_name)
        header = _dedupe_header(header)
        width = len(header)
        rows = []
        for raw_row in reader:
            raw_row = list(raw_row[:width]) + [""] * (width - len(raw_row))
            if infer_types:
                row = [parse_cell(field, missing_tokens) for field in raw_row]
            else:
                row = [
                    MISSING if field.strip().lower() in missing_tokens else field.strip()
                    for field in raw_row
                ]
            rows.append(row)
    return Table(header, rows, name=table_name)


def write_csv(
    table: Table,
    path: str | Path,
    missing_marker: str = "±",
    produced_marker: str = "⊥",
) -> None:
    """Write *table* to CSV, rendering nulls with explicit kind markers."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_render_cell(c, missing_marker, produced_marker) for c in row])


def read_lake_dir(directory: str | Path, pattern: str = "*.csv") -> list[Table]:
    """Load every CSV under *directory* (sorted by filename) as tables."""
    directory = Path(directory)
    tables = []
    for path in sorted(directory.glob(pattern)):
        tables.append(read_csv(path))
    return tables


def _render_cell(cell: Cell, missing_marker: str, produced_marker: str) -> str:
    if is_null(cell):
        return produced_marker if is_produced(cell) else missing_marker
    if isinstance(cell, float):
        return f"{cell:g}"
    return str(cell)


def _sniff_delimiter(path: Path) -> str:
    """Pick the candidate delimiter that splits the header most often
    (defaulting to comma when nothing else wins)."""
    with path.open(newline="", encoding="utf-8") as handle:
        first_line = handle.readline()
    best, best_count = ",", first_line.count(",")
    for candidate in (";", "\t", "|"):
        count = first_line.count(candidate)
        if count > best_count:
            best, best_count = candidate, count
    return best


def _dedupe_header(header: Iterable[str]) -> list[str]:
    """Make header names unique (``col``, ``col_2``, ...): duplicate headers
    are common in scraped open data and Table construction rejects them."""
    seen: dict[str, int] = {}
    result = []
    for raw in header:
        base = raw.strip() or "column"
        count = seen.get(base, 0) + 1
        seen[base] = count
        result.append(base if count == 1 else f"{base}_{count}")
    return result
