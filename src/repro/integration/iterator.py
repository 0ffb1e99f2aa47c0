"""Lazy Full Disjunction: facts as a stream, component at a time.

The paper's reference [2] (Cohen et al., VLDB 2006) computes FD with
*polynomial-delay iterators* -- results stream out without materializing the
whole output.  The practical reproduction of that interface: the input
decomposes into connected components of the value-sharing graph (see
:func:`repro.integration.intern.int_connected_components`), and each component's facts can be
emitted as soon as that component is solved.  Peak memory is bounded by the
largest component rather than the whole output, and consumers can stop
early (top-n preview, first-match probes) without paying for the rest.

This is *component delay*, not tuple-level polynomial delay -- the honest
scope for an in-memory library, recorded in DESIGN.md's substitutions.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..table.table import Table
from .intern import (
    ValueInterner,
    int_connected_components,
    int_dedupe,
    intern_tuples,
    interned_closure,
    interned_remove_subsumed,
    unintern_tuple,
)
from .tuples import (
    WorkTuple,
    base_cells_map,
    canonicalize_null_kinds,
    missing_positions_map,
    prepare_integration_input,
)

__all__ = ["iter_fd", "fd_preview"]


def iter_fd(
    tables: Sequence[Table], largest_first: bool = False
) -> Iterator[tuple[tuple[str, ...], WorkTuple]]:
    """Yield ``(header, fact)`` pairs of FD(tables), component by component.

    The union of all yielded facts equals ``AliteFD().integrate(tables)``
    (asserted by tests); within a component, facts appear in deterministic
    (smallest-TID, value) order.  ``largest_first=False`` (default) solves
    small components first, so the first results arrive as early as
    possible.  Each component is solved on the interned integer kernel
    against the stream's own interner (built here, dropped with the
    generator), so the stream pays interning once up front and int-vector
    work per component.
    """
    header, work, _ = prepare_integration_input(tables)
    base = base_cells_map(work)
    # Computed once, shared by every component's canonicalization pass --
    # the per-component cost stays proportional to the component.
    missing_of = missing_positions_map(base)
    interner = ValueInterner()
    ints = int_dedupe(intern_tuples(work, interner))
    domain = interner.domain
    ranks = interner.sort_ranks()
    components, all_null = int_connected_components(ints, domain)
    components.sort(key=len, reverse=largest_first)
    emitted = 0
    for component in components:
        solved_int = interned_remove_subsumed(
            interned_closure(component, domain, ranks), domain
        )
        solved = canonicalize_null_kinds(
            [unintern_tuple(t, interner) for t in solved_int],
            base,
            missing_of,
        )
        solved.sort(
            key=lambda w: (min(int(t[1:]) for t in w.tids), tuple(map(repr, w.cells)))
        )
        for fact in solved:
            emitted += 1
            yield tuple(header), fact
    if emitted == 0 and all_null:
        yield tuple(header), canonicalize_null_kinds(
            [unintern_tuple(all_null[0], interner)], base, missing_of
        )[0]


def fd_preview(tables: Sequence[Table], n: int = 10) -> Table:
    """The first *n* facts of the FD, without computing the rest.

    A UI affordance the demo's interactivity implies: show the user some
    integrated tuples immediately while the full integration would still be
    running on a large set.
    """
    rows = []
    header: tuple[str, ...] = ()
    for header, fact in iter_fd(tables):
        rows.append(fact.cells)
        if len(rows) >= n:
            break
    return Table(header, rows, name="fd_preview")
