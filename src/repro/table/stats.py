"""Per-column statistics, computed once and shared by every layer.

Before this module existed, the profiler, every discoverer (SANTOS, JOSIE,
LSH Ensemble, TUS, COCOA, Starmie), the aligner's featurization and ALITE's
hot path each re-extracted columns, re-built distinct sets and re-hashed
sketches from the same immutable tables -- an O(consumers x columns x rows)
tax on every pipeline run.  :class:`TableStats` is the fix: one
:class:`ColumnStats` per column, filled by a **single pass** over the raw
column array and memoized on the owning :class:`~repro.table.table.Table`.

Invalidation contract
---------------------
Tables are immutable by convention, so the cache never invalidates: stats
are keyed by *table identity* -- ``(table.uid, column)`` when viewed
lake-wide -- and live exactly as long as the table object.  ``table.uid``
is a process-unique monotonic counter, **not** ``id(table)``: object ids
are recycled the moment a table is garbage collected, so an id-keyed
external cache could serve a dead table's statistics for an unrelated
successor at the same address; uids can never collide that way.  Deriving
a new table (every operator returns a new ``Table``) starts from an empty
cache under a fresh uid; mutating ``table.rows`` in place is already
outside the API contract and additionally yields stale statistics.

Hydration (the persistent lake store)
-------------------------------------
:mod:`repro.store` persists every :class:`ColumnStats` product to disk and
restores it with :meth:`ColumnStats.from_snapshot`: a hydrated column is
born ``scanned`` with all base statistics and the token set pre-filled,
holds its MinHash as its persisted bytes (decoded on first use),
and holds only a *loader* for its raw array -- cell data is paged in per
column, on first raw access, and ``scan_count`` stays 0 for the whole warm
run (the observable warm-start guarantee).  The full normalized text
domain is not stored at all: it is derived from ``distinct``.

Every consumer-facing product is immutable: ``distinct`` and ``tokens``
are frozensets, column arrays are tuples, and the shared ``values`` /
column lists are :class:`ReadOnlyView` instances whose mutators raise.

``scan_count`` records how many raw passes the base scan performed for a
column -- it is the observable that lets tests assert the whole pipeline
touches each column's raw data exactly once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from .infer import infer_dtype
from .values import MISSING, Cell, is_null

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sketch.minhash import MinHasher, MinHashSignature
    from .table import Table

__all__ = ["ColumnStats", "TableStats", "ReadOnlyView"]


class ReadOnlyView(list):
    """A list whose mutators raise -- the type of every cached column view.

    It *is* a list (so ``view == [1, 2]`` and slicing keep working for all
    existing consumers), but ``sort``/``append``/item assignment fail
    loudly instead of silently corrupting the shared stats cache.  Copy
    with ``list(view)`` if a mutable list is needed.
    """

    __slots__ = ()

    def _blocked(self, *args: Any, **kwargs: Any):
        raise TypeError(
            "cached column view is read-only; copy it with list(view) first"
        )

    append = extend = insert = remove = pop = clear = _blocked
    sort = reverse = __setitem__ = __delitem__ = _blocked
    __iadd__ = __imul__ = _blocked  # type: ignore[assignment]

    def __reduce__(self):
        # Default list-subclass pickling rebuilds via append/extend, which
        # are blocked here; reconstruct through the constructor instead.
        return (self.__class__, (list(self),))


def _distinct(values: list[Cell]) -> frozenset[Cell]:
    """The distinct non-null cells, one per class of equal cells.

    ``frozenset`` alone keeps whichever of the equal cells ``True``, ``1``
    and ``1.0`` (or ``0.0`` and ``-0.0``) comes first, so the set would
    depend on row order.  Here each class keeps its least member by
    ``(type name, repr)``, whatever the order.  A single-typed column
    with no float zero has nothing equal to merge."""
    distinct = frozenset(values)
    kinds = set(map(type, values))
    if len(kinds) == 1 and (float not in kinds or 0.0 not in distinct):
        return distinct
    least: dict[Cell, Cell] = {}
    for value in values:
        held = least.setdefault(value, value)
        if held is not value and _rank(value) < _rank(held):
            least[value] = value
    return frozenset(least.values())


def _rank(cell: Cell) -> tuple[str, str]:
    return (type(cell).__name__, repr(cell))


class ColumnStats:
    """Memoized statistics of one column of one (immutable) table.

    The base scan -- one pass over the raw column array -- fills the value
    list, null counts, distinct set, dtype and numeric fraction together.
    The MinHash sketch and token set derive from the scanned values and
    are memoized separately, so nothing is ever computed twice.
    """

    __slots__ = (
        "table_name",
        "name",
        "_array",
        "_array_loader",
        "scan_count",
        "_scanned",
        "values",
        "row_count",
        "null_count",
        "missing_count",
        "distinct",
        "dtype",
        "numeric_fraction",
        "_tokens",
        "_text_values",
        "_minhash",
        "_column_list",
    )

    def __init__(
        self,
        table_name: str,
        name: str,
        array: tuple[Cell, ...] | None,
        array_loader: "Callable[[], tuple[Cell, ...]] | None" = None,
    ):
        if array is None and array_loader is None:
            raise ValueError("ColumnStats needs an array or an array loader")
        self.table_name = table_name
        self.name = name
        self._array = array
        self._array_loader = array_loader
        self.scan_count = 0
        self._scanned = False
        self._tokens: frozenset[str] | None = None
        self._text_values: dict[int | None, frozenset[str]] = {}
        # A hydrated column's MinHash stays as its persisted bytes until
        # first asked for; minhash() decodes and keeps the result.
        self._minhash: dict[tuple[int, int], "MinHashSignature | bytes"] = {}
        self._column_list: list[Cell] | None = None

    @classmethod
    def from_snapshot(
        cls,
        table_name: str,
        name: str,
        *,
        dtype: str,
        row_count: int,
        null_count: int,
        missing_count: int,
        numeric_fraction: float,
        distinct: Iterable[Cell],
        tokens: Iterable[str] | None = None,
        minhash: "Mapping[tuple[int, int], bytes] | None" = None,
        array: tuple[Cell, ...] | None = None,
        array_loader: "Callable[[], tuple[Cell, ...]] | None" = None,
    ) -> "ColumnStats":
        """Rebuild fully-scanned column statistics from a persisted snapshot.

        The column is born with ``scan_count == 0`` and ``_scanned`` set:
        every cached product (distinct set, tokens, MinHash) is served from
        the snapshot -- the MinHash, given as its persisted bytes, is
        decoded on first use -- the full normalized text domain is derived
        from ``distinct``, and the raw cell array -- the one thing a
        snapshot deliberately does not duplicate -- is paged in through
        *array_loader* only if a consumer actually asks for cells.
        """
        stats = cls(table_name, name, array, array_loader=array_loader)
        stats.row_count = row_count
        stats.null_count = null_count
        stats.missing_count = missing_count
        stats.numeric_fraction = numeric_fraction
        stats.distinct = frozenset(distinct)
        stats.dtype = dtype
        if tokens is not None:
            stats._tokens = frozenset(tokens)
        if minhash:
            stats._minhash.update(minhash)
        stats._scanned = True
        return stats

    # ------------------------------------------------------------------
    # The one pass
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        """The single raw pass: values, nulls, distinct, dtype, numerics."""
        from ..text.normalize import to_float

        self.scan_count += 1
        values: list[Cell] = []
        null_count = missing_count = numeric = 0
        for cell in self.array:
            if is_null(cell):
                null_count += 1
                if cell is MISSING:
                    missing_count += 1
                continue
            values.append(cell)
            if to_float(cell) is not None:
                numeric += 1
        self.numeric_fraction = numeric / len(values) if values else 0.0
        self.values = ReadOnlyView(values)
        self.row_count = len(self.array)
        self.null_count = null_count
        self.missing_count = missing_count
        self.distinct = _distinct(values)
        # Delegated to the one canonical implementation so table.schema and
        # the stats cache can never disagree on a column's dtype.
        self.dtype = infer_dtype(values)
        self._scanned = True

    def _ensure(self) -> "ColumnStats":
        if not self._scanned:
            self._scan()
        return self

    def __getattr__(self, attribute: str) -> Any:
        # Base stats materialize on first access; __getattr__ only fires for
        # slots that were never assigned -- before the scan ran, or (for the
        # value list only) on a hydrated snapshot, which restores every base
        # statistic except the raw cells.
        if attribute in (
            "values", "row_count", "null_count", "missing_count",
            "distinct", "dtype", "numeric_fraction",
        ):
            if self._scanned:
                if attribute == "values":
                    # Hydrated column: derive the non-null value list from
                    # the (lazily paged-in) array.  This is a filter over
                    # already-loaded cells, not a counted statistics scan.
                    view = ReadOnlyView(c for c in self.array if not is_null(c))
                    self.values = view
                    return view
                raise AttributeError(attribute)
            self._scan()
            return getattr(self, attribute)
        raise AttributeError(attribute)

    # ------------------------------------------------------------------
    # Derived, individually memoized products
    # ------------------------------------------------------------------
    @property
    def array(self) -> tuple[Cell, ...]:
        """The raw column, nulls included, as an immutable tuple.

        For a hydrated snapshot column the array is paged in from the
        segment store on first access (and cached); every other consumer of
        this property then shares the loaded tuple."""
        if self._array is None:
            assert self._array_loader is not None  # enforced at construction
            self._array = tuple(self._array_loader())
        return self._array

    def _bind_array(self, array: tuple[Cell, ...]) -> None:
        """Wire an already-materialized cell array into a hydrated column
        (used when a stored table and its stats snapshot meet in memory),
        saving the segment read the lazy loader would otherwise perform."""
        if self._array is None:
            self._array = array

    @property
    def column_list(self) -> list[Cell]:
        """The raw column as a cached :class:`ReadOnlyView` -- the object
        :meth:`Table.column` hands out."""
        if self._column_list is None:
            self._column_list = ReadOnlyView(self.array)
        return self._column_list

    @property
    def non_null_count(self) -> int:
        # From the counts, not ``len(values)``: a hydrated column would
        # page its cells in just to be measured.
        stats = self._ensure()
        return stats.row_count - stats.null_count

    @property
    def tokens(self) -> frozenset[str]:
        """The domain token set (what JOSIE / LSH Ensemble index and the
        TF-IDF corpus counts): ``column_token_set`` of the values."""
        if self._tokens is None:
            from ..text.tokenize import column_token_set

            # Not ``distinct``: it keeps one of the equal cells ``True``,
            # ``1`` and ``1.0`` (or ``0.0`` and ``-0.0``), and they
            # tokenize apart.  Keyed by type and a float's
            # sign too, each one is still tokenized once.
            unique = {
                (type(v), v, type(v) is float and math.copysign(1.0, v)): v
                for v in self._ensure().values
            }
            self._tokens = frozenset(column_token_set(unique.values()))
        return self._tokens

    def text_values(self, limit: int | None = None) -> frozenset[str]:
        """Normalized string values (TUS / alignment evidence), optionally
        computed over only the first *limit* non-null values.

        Without a limit this is the normalized string members of
        ``distinct``, so it reads no cells; a domain already in normal form
        is ``distinct`` itself, not a second copy of it."""
        if limit is not None and limit >= self.non_null_count:
            limit = None
        cached = self._text_values.get(limit)
        if cached is None:
            from ..text.tokenize import normalize_token

            if limit is None:
                distinct = self._ensure().distinct
                cached = frozenset(
                    normalize_token(v) for v in distinct if isinstance(v, str)
                )
                if cached == distinct:
                    cached = distinct
            else:
                cached = frozenset(
                    normalize_token(v)
                    for v in self._ensure().values[:limit]
                    if isinstance(v, str)
                )
            self._text_values[limit] = cached
        return cached

    def example_values(self, n: int = 3) -> list[str]:
        """First *n* distinct values as strings, in row order."""
        return list(dict.fromkeys(str(v) for v in self._ensure().values))[:n]

    def minhash(self, hasher: "MinHasher") -> "MinHashSignature":
        """The column's MinHash signature under *hasher* (memoized per
        ``(num_perm, seed)``, so every discoverer shares one signature)."""
        key = (hasher.num_perm, hasher.seed)
        signature = self._minhash.get(key)
        if signature is None:
            signature = hasher.signature(self.tokens)
            self._minhash[key] = signature
        elif isinstance(signature, bytes):
            from ..sketch.minhash import MinHashSignature

            signature = self._minhash[key] = MinHashSignature.from_bytes(signature)
        return signature

    # ------------------------------------------------------------------
    # Pickling: a lazy array loader is a live handle into a store on disk;
    # materialize the cells so pickles stay self-contained.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        state: dict[str, Any] = {}
        for slot in self.__slots__:
            try:
                state[slot] = object.__getattribute__(self, slot)
            except AttributeError:
                continue  # never-assigned slot (base stats before the scan)
        if state.get("_array") is None and self._array_loader is not None:
            state["_array"] = self.array
        state["_array_loader"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        for key, value in state.items():
            setattr(self, key, value)

    def __repr__(self) -> str:
        state = "scanned" if self._scanned else "unscanned"
        return f"ColumnStats({self.table_name}.{self.name}, {state})"


class TableStats:
    """All column stats of one table, plus the table-level scan ledger.

    Keyed by the owning table's :attr:`~repro.table.table.Table.uid` (see
    :attr:`table_uid`), never by ``id(table)``.
    """

    __slots__ = ("_table_name", "_columns", "_by_name", "_table_uid")

    def __init__(self, table: "Table"):
        self._table_name = table.name
        self._columns = table.columns
        self._table_uid: int | None = table.uid
        arrays = table.column_arrays
        self._by_name = {
            name: ColumnStats(table.name, name, arrays[i])
            for i, name in enumerate(self._columns)
        }

    @classmethod
    def hydrated(
        cls,
        table_name: str,
        columns: Iterable[str],
        stats_by_name: Mapping[str, ColumnStats],
    ) -> "TableStats":
        """Assemble table stats from already-hydrated per-column snapshots
        (no owning table yet -- :meth:`Table.adopt_stats` re-keys these to a
        concrete table's uid when the cell data materializes)."""
        stats = cls.__new__(cls)
        stats._table_name = table_name
        stats._columns = tuple(columns)
        stats._table_uid = None
        missing = [c for c in stats._columns if c not in stats_by_name]
        if missing:
            raise ValueError(
                f"hydrated stats for table {table_name!r} missing columns: {missing}"
            )
        stats._by_name = {name: stats_by_name[name] for name in stats._columns}
        return stats

    @property
    def table_uid(self) -> int | None:
        """The uid of the owning table (None for a hydrated snapshot that
        has not been adopted by a materialized table yet)."""
        return self._table_uid

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    def _rekey(self, table_uid: int) -> None:
        """Bind these stats to a (new) owning table identity."""
        self._table_uid = table_uid

    def column(self, name: str) -> ColumnStats:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"table {self._table_name!r} has no column {name!r}; "
                f"columns: {list(self._columns)}"
            ) from None

    def __iter__(self) -> Iterator[ColumnStats]:
        return iter(self._by_name.values())

    def warm(self) -> "TableStats":
        """Run every column's base scan now (one pass each); returns self."""
        for stats in self._by_name.values():
            stats._ensure()
        return self

    @property
    def scan_counts(self) -> dict[str, int]:
        """Per-column count of raw base-scan passes performed so far."""
        return {name: s.scan_count for name, s in self._by_name.items()}

    def __repr__(self) -> str:
        return f"TableStats({self._table_name!r}, {len(self._by_name)} columns)"
