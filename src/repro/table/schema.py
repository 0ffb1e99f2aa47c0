"""Schemas: ordered, named, typed column descriptions.

Data-lake tables notoriously have unreliable headers; the schema layer keeps
whatever names exist but never *trusts* them -- alignment (integration IDs)
is computed from values by :mod:`repro.alignment`.  Types are one of a small
closed set inferred by :mod:`repro.table.infer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

__all__ = ["DTYPES", "ColumnSpec", "Schema"]

#: The closed set of column types the engine distinguishes.
DTYPES = ("string", "int", "float", "bool", "any", "empty")


@dataclass(frozen=True)
class ColumnSpec:
    """A single column: a name plus an inferred type."""

    name: str
    dtype: str = "any"

    def __post_init__(self) -> None:
        if self.dtype not in DTYPES:
            raise ValueError(f"unknown dtype {self.dtype!r}; expected one of {DTYPES}")

    def is_numeric(self) -> bool:
        """Whether values of this column can participate in arithmetic."""
        return self.dtype in ("int", "float")

    def renamed(self, name: str) -> "ColumnSpec":
        """A copy of this spec under a new name."""
        return ColumnSpec(name, self.dtype)


class Schema:
    """An ordered collection of :class:`ColumnSpec` with unique names."""

    __slots__ = ("_specs", "_index")

    def __init__(self, specs: Iterable[ColumnSpec]):
        self._specs = tuple(specs)
        self._index = {spec.name: i for i, spec in enumerate(self._specs)}
        if len(self._index) != len(self._specs):
            seen: set[str] = set()
            dupes = sorted(
                {s.name for s in self._specs if s.name in seen or seen.add(s.name)}
            )
            raise ValueError(f"duplicate column names in schema: {dupes}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self._specs)

    def index_of(self, name: str) -> int:
        """Position of *name*, raising ``KeyError`` with context if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no column {name!r}; columns are {list(self.names)}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ColumnSpec]:
        return iter(self._specs)

    def __getitem__(self, key: int | str) -> ColumnSpec:
        if isinstance(key, str):
            return self._specs[self.index_of(key)]
        return self._specs[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._specs == other._specs

    def __hash__(self) -> int:
        return hash(self._specs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.name}:{s.dtype}" for s in self._specs)
        return f"Schema({inner})"

    def renamed(self, mapping: Mapping[str, str]) -> "Schema":
        """Apply a partial column-rename *mapping* (old name -> new name)."""
        unknown = sorted(set(mapping) - set(self._index))
        if unknown:
            raise KeyError(f"cannot rename unknown columns: {unknown}")
        return Schema(spec.renamed(mapping.get(spec.name, spec.name)) for spec in self._specs)

    def project(self, names: Iterable[str]) -> "Schema":
        """The sub-schema containing *names*, in the given order."""
        return Schema(self[name] for name in names)
