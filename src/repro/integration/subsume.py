"""Subsumption removal: dropping tuples that add no information.

The last step of every FD algorithm.  A tuple is dropped when some other
tuple repeats all of its non-null values (Figure 8(b): ``t12 = (JnJ, ±)``
disappears because ``f12 = (JnJ, ⊥, USA)`` already says everything it says).
Provenance of a subsumed tuple is dropped with it -- the paper reports the
*derivation* set of each output fact, not a coverage set.

The implementation first collapses duplicates (same values up to null kind,
provenance unioned), then uses an inverted index on (position, value) so
each tuple is only checked against candidates sharing its rarest value.

This object-level form is the :class:`~repro.integration.alite.LegacyAliteFD`
baseline; the default integrators run the interned twin,
:func:`~repro.integration.intern.interned_remove_subsumed` (re-exported
here), whose candidate check is one non-null-bitmask ``AND`` before any
cell loop.

:func:`connected_components` is the object-level form of the other
structural fact the kernel rests on (Paganelli et al., BDR 2019): tuples
only ever merge with, or subsume, tuples they share a value with, so the
input decomposes into independent components of the value-sharing graph.
:class:`~repro.integration.alite.AliteFD` partitions first with the
interned twin, :func:`~repro.integration.intern.int_connected_components`,
which ``tests/unit/test_intern.py`` pins to this one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..table.values import is_null
from .intern import interned_remove_subsumed
from .tuples import WorkTuple, cell_key, combine_duplicate, normalized_key, subsumes

__all__ = [
    "dedupe_tuples",
    "remove_subsumed",
    "interned_remove_subsumed",
    "connected_components",
]


def dedupe_tuples(tuples: Iterable[WorkTuple]) -> list[WorkTuple]:
    """Collapse value-identical tuples (null kind ignored), unioning
    provenance and upgrading null kinds (missing beats produced)."""
    store: dict[tuple, WorkTuple] = {}
    for work in tuples:
        key = normalized_key(work)
        existing = store.get(key)
        store[key] = work if existing is None else combine_duplicate(existing, work)
    return list(store.values())


def remove_subsumed(tuples: Sequence[WorkTuple]) -> list[WorkTuple]:
    """Keep only tuples not subsumed by another (distinct) tuple.

    Input should already be deduped; duplicates are collapsed defensively.
    """
    unique = dedupe_tuples(tuples)
    if len(unique) <= 1:
        return unique

    # Inverted index: (position, value key) -> indices of tuples having it.
    postings: dict[tuple, list[int]] = {}
    cell_keys: list[list[tuple]] = []
    for i, work in enumerate(unique):
        keys = []
        for position, cell in enumerate(work.cells):
            if is_null(cell):
                continue
            key = (position, cell_key(cell))
            postings.setdefault(key, []).append(i)
            keys.append(key)
        cell_keys.append(keys)

    kept: list[WorkTuple] = []
    for i, work in enumerate(unique):
        keys = cell_keys[i]
        if not keys:
            # All-null tuple: subsumed by anything else.
            if len(unique) > 1:
                continue
            kept.append(work)
            continue
        # Candidates must contain the tuple's rarest value.
        rarest = min(keys, key=lambda key: len(postings[key]))
        dominated = False
        for j in postings[rarest]:
            if j == i:
                continue
            if subsumes(unique[j].cells, work.cells):
                dominated = True
                break
        if not dominated:
            kept.append(work)
    return kept


def connected_components(
    tuples: list[WorkTuple],
) -> tuple[list[list[WorkTuple]], list[WorkTuple]]:
    """Split object-level tuples into connected components of the
    shared-value graph.  Returns ``(components, all_null_tuples)``:
    all-null tuples (which a degenerate input may contain) share no value,
    so they belong to no component.

    Values key directly by :func:`cell_key`, and all-null membership is a
    set probe, not a list scan.
    """
    parent = list(range(len(tuples)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_value: dict[tuple, int] = {}
    all_null: set[int] = set()
    for i, work in enumerate(tuples):
        any_value = False
        for position, cell in enumerate(work.cells):
            if is_null(cell):
                continue
            any_value = True
            key = (position, cell_key(cell))
            owner = by_value.setdefault(key, i)
            if owner != i:
                parent[find(i)] = find(owner)
        if not any_value:
            all_null.add(i)

    groups: dict[int, list[WorkTuple]] = {}
    for i, work in enumerate(tuples):
        if i in all_null:
            continue
        groups.setdefault(find(i), []).append(work)
    return list(groups.values()), [tuples[i] for i in sorted(all_null)]
