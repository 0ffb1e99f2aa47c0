"""Inverted posting lists over the lake's column domains.

The core sublinear structure of the query path: a token (or normalized
text value) maps to the list of column keys containing it, so probing a
query's token set touches only the columns that share something with it
-- sum-of-document-frequency work instead of one pass over every column
of the lake.  Built once per process from the shared column token sets
and text domains (never from raw cells); a stored lake serves those from
its stats snapshots, so nothing here is persisted.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

import numpy as np

from ..obs import metrics

__all__ = ["ColumnRegistry", "PostingIndex"]


class ColumnRegistry:
    """Compact identity space for the lake's columns.

    Posting lists and sketch indexes refer to columns by dense integer
    key; the registry resolves a key back to ``(table, column)`` and
    keeps the per-column domain sizes retrieval ranking and scoring
    tie-breaks consume.
    """

    __slots__ = ("owners", "token_sizes", "table_of", "by_table", "tables")

    def __init__(self, owners: list[tuple[str, str]], token_sizes: list[int]):
        if len(owners) != len(token_sizes):
            raise ValueError("owners and token_sizes must align")
        self.owners = owners
        self.token_sizes = token_sizes
        self.table_of = [table for table, _ in owners]
        self.by_table: dict[str, list[int]] = {}
        for key, table in enumerate(self.table_of):
            self.by_table.setdefault(table, []).append(key)
        self.tables = tuple(self.by_table)

    def __len__(self) -> int:
        return len(self.owners)

    def owner(self, key: int) -> tuple[str, str]:
        return self.owners[key]

    def keys_of(self, tables: Iterable[str] | None = None) -> Iterator[int]:
        """Column keys of *tables* (all columns when None), in key order."""
        if tables is None:
            yield from range(len(self.owners))
            return
        for table in tables:
            yield from self.by_table.get(table, ())


class PostingIndex:
    """token -> sorted list of column keys containing it."""

    __slots__ = ("postings", "sizes", "_arrays")

    def __init__(self, postings: dict[str, list[int]], sizes: list[int]):
        self.postings = postings
        #: Per-column domain size under *this* channel's vocabulary (token
        #: count for the token channel, normalized-value count for the
        #: value channel) -- distinct from the registry's token sizes.
        self.sizes = sizes
        # Lazy per-probed-token contiguous int arrays for ``probe``;
        # ``postings`` itself stays plain lists (the public contract
        # tests compare against).
        self._arrays: dict[str, Any] = {}

    @classmethod
    def build(cls, domains: Iterable[tuple[int, Iterable[Hashable]]]) -> "PostingIndex":
        """Index ``(column key, domain)`` pairs; keys must be dense ints."""
        postings: dict[str, list[int]] = {}
        sizes: list[int] = []
        for key, domain in domains:
            if key != len(sizes):
                raise ValueError("PostingIndex.build expects dense keys in order")
            count = 0
            for token in domain:
                postings.setdefault(str(token), []).append(key)
                count += 1
            sizes.append(count)
        return cls(postings, sizes)

    # ------------------------------------------------------------------
    @property
    def num_tokens(self) -> int:
        return len(self.postings)

    @property
    def num_entries(self) -> int:
        """Total posting-list entries (the index's footprint metric)."""
        return sum(len(keys) for keys in self.postings.values())

    def probe(self, probe_tokens: Iterable[Hashable]) -> dict[int, int]:
        """Column key -> number of probe tokens it contains.

        The per-key counts are *exact* overlap sizes with the probe set,
        so a scorer ranking by overlap (JOSIE, COCOA's key index)
        consumes them directly -- retrieval and exact scoring are the
        same pass.  The matched posting lists merge as one
        ``concatenate`` + ``bincount`` over contiguous int arrays (cached
        per probed token); a single list or a handful of entries is
        counted directly, because ``bincount`` is O(columns of the lake)
        whatever the probe matched.  Keys come back in first-match order
        on the direct paths and ascending after ``bincount``; consumers
        aggregate or re-sort with explicit tie-breaks.  One histogram
        observation per probe (never per posting entry) records how many
        entries it touched.
        """
        postings = self.postings
        arrays = self._arrays
        matched = []
        total = 0
        for token in probe_tokens:
            text = str(token)
            array = arrays.get(text)
            if array is None:
                keys = postings.get(text)
                if not keys:
                    continue
                array = arrays[text] = np.asarray(keys, dtype=np.int64)
            matched.append(array)
            total += len(array)
        metrics.histogram(
            "postings.probe_entries", metrics.DEFAULT_SIZE_BUCKETS
        ).observe(total)
        if not matched:
            return {}
        if len(matched) == 1:
            # A single posting list holds each key once: all counts are 1.
            return dict.fromkeys(matched[0].tolist(), 1)
        if total < 64:
            hits: dict[int, int] = {}
            for array in matched:
                for key in array.tolist():
                    hits[key] = hits.get(key, 0) + 1
            return hits
        counts = np.bincount(np.concatenate(matched), minlength=len(self.sizes))
        nonzero = np.nonzero(counts)[0]
        return dict(zip(nonzero.tolist(), counts[nonzero].tolist()))

    def __repr__(self) -> str:
        return f"PostingIndex({self.num_tokens} tokens, {self.num_entries} entries)"
