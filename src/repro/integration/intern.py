"""The interned-value Full Disjunction kernel: FD hot paths on integers.

The object-level kernel (kept as :class:`~repro.integration.alite.LegacyAliteFD`)
pays for every ``joinable`` / ``subsumes`` / ``merge`` with per-cell type
dispatch, and keys every posting and store entry by a tuple of tagged
tuples built by :func:`~repro.integration.tuples.cell_key`.  This module
replaces that representation wholesale:

* a :class:`ValueInterner` maps each distinct ``cell_key`` to a small
  integer **code** (``0`` is reserved for nulls of either kind -- null
  *kind* is recomputed from provenance afterwards, see
  :func:`~repro.integration.tuples.canonicalize_null_kinds`, so the kernel
  never needs to carry it);
* working tuples become :class:`IntTuple`: a tuple of codes plus a
  **non-null bitmask**, so the subsumption candidate check and the
  joinability overlap check are one mask ``AND`` before any cell loop;
* closure and subsumption postings are keyed by one packed integer,
  ``position * domain + code``, instead of a ``(position, tagged tuple)``
  pair; store keys are the code vectors themselves.

**Determinism / equivalence contract.**  The interned kernel must produce
*identical* results to the legacy kernel -- cells, null kinds, provenance
and row order.  Value identity is easy (``cell_key`` equality is code
equality by construction).  Provenance is subtler: the closure folds
re-derivations of a fact with a minimal-witness rule, and *which*
derivations occur depends on the order tuples meet, so the kernel must
iterate partners in exactly the legacy order (sorted store keys).  Codes
are assigned in arrival order, which is *not* value order -- so every
closure run uses a **rank permutation** (:meth:`ValueInterner.sort_ranks`):
code ``c`` maps to the rank of its tagged key in the sorted domain.  Rank
vectors are order-isomorphic to the legacy tagged-key store keys, so
sorting by them reproduces the legacy iteration exactly.

Interning contract: an interner lives exactly as long as **the call that
filled it** -- :func:`solve_interned` (behind
:class:`~repro.integration.alite.AliteFD`, batch and incremental) builds
its own, so a result can depend on nothing an earlier call interned and
an integrator instance holds no state.  **Cell spelling:** a code is rendered back as
the first spelling *this input* carries (:meth:`ValueInterner.cell`).  The
one visible normalization this implies: when an integration mixes
``==``-equal numeric spellings of one value (``1`` and ``1.0`` -- the
only cells :func:`~repro.integration.tuples.cell_key` collapses), every
occurrence renders as the input's first spelling, where the legacy
kernel preserves each unmerged row's own spelling.  The property suite
therefore compares cells by ``==`` *and* by normalized key, which is
exactly the equivalence the relational semantics define.

**One kernel.**  :func:`interned_closure` and
:func:`interned_remove_subsumed` are plain Python loops over ints, and
they are the only implementation: partitioning leaves components of a
handful of tuples (largest 9 on the end-to-end integrate workload, at
most 70 in ``bench_fd_kernel``), where the per-pair dict / set
bookkeeping is the whole cost and array setup does not pay for itself.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Iterable, Sequence

from ..obs import metrics, trace
from ..table.values import MISSING, PRODUCED, Cell, is_null
from .tuples import WorkTuple, cell_key

__all__ = [
    "ValueInterner",
    "IntTuple",
    "NULL_CODE",
    "intern_tuples",
    "unintern_tuple",
    "int_subsumes",
    "int_dedupe",
    "interned_closure",
    "interned_remove_subsumed",
    "int_connected_components",
    "solve_interned",
    "fd_stats_from_span",
]

#: The code every null cell (either kind) interns to.
NULL_CODE = 0

_NULL_KEY = cell_key(MISSING)


class ValueInterner:
    """Append-only bijection between distinct ``cell_key`` values and codes.

    Code ``0`` is the null code; value codes start at ``1`` and are handed
    out in arrival order.  ``cell(code)`` returns the representative cell
    (the first cell interned for that key) for rendering results back at
    the object level.
    """

    __slots__ = ("_code_of", "_cells", "_keys")

    def __init__(self) -> None:
        self._code_of: dict[tuple, int] = {}
        self._cells: list[Cell] = [PRODUCED]
        self._keys: list[tuple] = [_NULL_KEY]

    def __len__(self) -> int:
        return len(self._cells) - 1  # distinct non-null values

    @property
    def domain(self) -> int:
        """Number of codes handed out, nulls included (= max code + 1)."""
        return len(self._cells)

    def code(self, cell: Cell) -> int:
        """Intern one cell (nulls of either kind collapse to ``NULL_CODE``)."""
        if is_null(cell):
            return NULL_CODE
        key = cell_key(cell)
        code = self._code_of.get(key)
        if code is None:
            code = len(self._cells)
            self._code_of[key] = code
            self._cells.append(cell)
            self._keys.append(key)
        return code

    def cell(self, code: int) -> Cell:
        """The representative cell of a code (``PRODUCED`` for the null code;
        callers re-kind nulls from provenance)."""
        return self._cells[code]

    def sort_ranks(self) -> tuple[int, ...]:
        """``ranks[code]`` = position of the code's tagged key in the sorted
        domain (null key included).

        Rank vectors compare exactly like the legacy kernel's tagged-key
        store keys, which is what keeps the interned closure's iteration
        order -- and therefore its provenance folding -- identical to the
        object kernel's.
        """
        order = sorted(range(len(self._keys)), key=self._keys.__getitem__)
        ranks = [0] * len(order)
        for rank, code in enumerate(order):
            ranks[code] = rank
        return tuple(ranks)


class IntTuple:
    """One FD working tuple in the interned domain.

    ``codes[i] == 0`` means null at position *i*; ``mask`` has bit *i* set
    iff position *i* is non-null.
    """

    __slots__ = ("codes", "mask", "tids")

    def __init__(self, codes: tuple[int, ...], mask: int, tids: frozenset[str]):
        self.codes = codes
        self.mask = mask
        self.tids = tids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntTuple({self.codes!r}, tids={sorted(self.tids)})"


def intern_tuples(
    tuples: Iterable[WorkTuple], interner: ValueInterner
) -> list[IntTuple]:
    """Object working set -> interned working set (null kinds collapse)."""
    code_of = interner.code
    out = []
    for work in tuples:
        codes = []
        mask = 0
        for position, cell in enumerate(work.cells):
            code = code_of(cell)
            codes.append(code)
            if code:
                mask |= 1 << position
        out.append(IntTuple(tuple(codes), mask, work.tids))
    return out


def unintern_tuple(work: IntTuple, interner: ValueInterner) -> WorkTuple:
    """Interned tuple -> object tuple, each code rendered as the first
    spelling *interner* saw for it.  Nulls come back as ``PRODUCED``
    placeholders (the null code's own cell); callers must follow with
    :func:`~repro.integration.tuples.canonicalize_null_kinds` (which every
    FD algorithm does anyway -- null kind is a pure function of provenance).
    """
    cell = interner.cell
    return WorkTuple(cells=tuple([cell(code) for code in work.codes]), tids=work.tids)


# ----------------------------------------------------------------------
# Kernel predicates: tight int loops behind one-mask prefilters (the
# closure inlines its joinability check; subsumption is the one it calls)
# ----------------------------------------------------------------------
def int_subsumes(a: IntTuple, b: IntTuple) -> bool:
    """Whether *a* subsumes *b*: one mask check (*b* must add no
    positions), then code equality over *b*'s non-null positions."""
    remaining = b.mask
    if remaining & ~a.mask:
        return False
    a_codes, b_codes = a.codes, b.codes
    while remaining:
        position = (remaining & -remaining).bit_length() - 1
        if a_codes[position] != b_codes[position]:
            return False
        remaining &= remaining - 1
    return True


def _min_witness(a: IntTuple, b: IntTuple) -> IntTuple:
    """The canonical minimal-witness fold of two derivations of one fact --
    the interned twin of :func:`~repro.integration.tuples.combine_duplicate`
    (fewest supporting TIDs, ties by sorted TID list)."""
    key_a = (len(a.tids), sorted(a.tids))
    key_b = (len(b.tids), sorted(b.tids))
    return a if key_a <= key_b else b


def int_dedupe(tuples: Iterable[IntTuple]) -> list[IntTuple]:
    """Collapse code-identical tuples, folding provenance by minimal
    witness (first-seen order preserved, like
    :func:`~repro.integration.subsume.dedupe_tuples`)."""
    store: dict[tuple[int, ...], IntTuple] = {}
    for work in tuples:
        existing = store.get(work.codes)
        store[work.codes] = work if existing is None else _min_witness(existing, work)
    return list(store.values())


# ----------------------------------------------------------------------
# Complementation closure on the interned domain
# ----------------------------------------------------------------------
def interned_closure(
    tuples: Sequence[IntTuple], domain: int, ranks: Sequence[int]
) -> list[IntTuple]:
    """Close *tuples* (already deduped) under pairwise complementation.

    Same agenda algorithm as the legacy
    :func:`~repro.integration.alite.complementation_closure`, with postings
    keyed by packed ``position * domain + code`` ints and partner iteration
    ordered by **rank scalars**: each store key's rank vector (see module
    docstring) is packed base-``domain`` into one integer, so the legacy
    sorted-tagged-key order becomes a single int comparison.  The inner
    loop is deliberately inlined -- re-derivations of known facts (the
    bulk of closure work) fold provenance without building a merged tuple
    object, and provenance comparisons resolve on support size before
    paying for a sort.
    """
    store: dict[tuple[int, ...], IntTuple] = {}
    packed_of: dict[tuple[int, ...], list[int]] = {}
    sort_int_of: dict[tuple[int, ...], int] = {}
    postings: dict[int, set[tuple[int, ...]]] = {}

    def insert(work: IntTuple) -> tuple[int, ...] | None:
        key = work.codes
        existing = store.get(key)
        if existing is not None:
            store[key] = _min_witness(existing, work)
            return None
        store[key] = work
        packed = [
            position * domain + code for position, code in enumerate(key) if code
        ]
        packed_of[key] = packed
        rank_scalar = 0
        for code in key:
            rank_scalar = rank_scalar * domain + ranks[code]
        sort_int_of[key] = rank_scalar
        for value in packed:
            postings.setdefault(value, set()).add(key)
        return key

    agenda: deque[tuple[int, ...]] = deque()
    for work in tuples:
        key = insert(work)
        if key is not None:
            agenda.append(key)

    sort_int = sort_int_of.__getitem__
    while agenda:
        key = agenda.popleft()
        work = store[key]
        work_codes = work.codes
        work_mask = work.mask
        work_tids = work.tids
        partner_keys: set[tuple[int, ...]] = set()
        for value in packed_of[key]:
            partner_keys.update(postings[value])
        partner_keys.discard(key)
        for partner_key in sorted(partner_keys, key=sort_int):
            partner = store[partner_key]
            partner_codes = partner.codes
            partner_mask = partner.mask
            # Productive pairs add positions *both* ways.  When one mask
            # contains the other, the merge reproduces the wider tuple's
            # own store key with a support superset -- and a superset can
            # never win the minimal-witness fold -- so the whole pair is
            # a provable no-op, skipped before any per-position work.
            if not work_mask & ~partner_mask or not partner_mask & ~work_mask:
                continue
            # Joinable?  A shared posting value guarantees the overlap
            # condition, so only conflicts at common positions can block.
            common = work_mask & partner_mask
            while common:
                position = (common & -common).bit_length() - 1
                if work_codes[position] != partner_codes[position]:
                    break
                common &= common - 1
            else:
                merged_codes = tuple(
                    [x if x else y for x, y in zip(work_codes, partner_codes)]
                )
                existing = store.get(merged_codes)
                if existing is None:
                    merged = IntTuple(
                        merged_codes,
                        work_mask | partner.mask,
                        work_tids | partner.tids,
                    )
                    store[merged_codes] = merged
                    packed = [
                        position * domain + code
                        for position, code in enumerate(merged_codes)
                        if code
                    ]
                    packed_of[merged_codes] = packed
                    rank_scalar = 0
                    for code in merged_codes:
                        rank_scalar = rank_scalar * domain + ranks[code]
                    sort_int_of[merged_codes] = rank_scalar
                    for value in packed:
                        postings.setdefault(value, set()).add(merged_codes)
                    agenda.append(merged_codes)
                else:
                    # Re-derivation: fold provenance by minimal witness
                    # (same rule as insert/_min_witness) without building
                    # a tuple object for the already-known fact.  The
                    # union is skipped outright when it cannot win:
                    # |work ∪ partner| >= max(|work|, |partner|), so an
                    # existing support smaller than either side already
                    # beats any merge of the two.
                    existing_tids = existing.tids
                    existing_size = len(existing_tids)
                    partner_tids = partner.tids
                    if existing_size < len(work_tids) or existing_size < len(
                        partner_tids
                    ):
                        continue
                    merged_tids = work_tids | partner_tids
                    if merged_tids != existing_tids:
                        merged_size = len(merged_tids)
                        if merged_size < existing_size or (
                            merged_size == existing_size
                            and sorted(merged_tids) < sorted(existing_tids)
                        ):
                            existing.tids = merged_tids
    return list(store.values())


# ----------------------------------------------------------------------
# Subsumption removal on the interned domain
# ----------------------------------------------------------------------
def interned_remove_subsumed(
    tuples: Sequence[IntTuple], domain: int
) -> list[IntTuple]:
    """Keep only tuples no other (distinct) tuple subsumes.

    The rarest-value candidate walk of
    :func:`~repro.integration.subsume.remove_subsumed`, with packed-int
    postings and the mask prefilter deciding most candidate pairs in one
    ``AND``.
    """
    unique = int_dedupe(tuples)
    if len(unique) <= 1:
        return unique

    postings: dict[int, list[int]] = {}
    packed_lists: list[list[int]] = []
    for i, work in enumerate(unique):
        packed = [
            position * domain + code
            for position, code in enumerate(work.codes)
            if code
        ]
        for value in packed:
            postings.setdefault(value, []).append(i)
        packed_lists.append(packed)

    kept: list[IntTuple] = []
    for i, work in enumerate(unique):
        packed = packed_lists[i]
        if not packed:
            # All-null tuple: subsumed by anything else.
            continue
        rarest = min(packed, key=lambda value: len(postings[value]))
        mask = work.mask
        dominated = False
        for j in postings[rarest]:
            if j == i:
                continue
            candidate = unique[j]
            if mask & ~candidate.mask:
                continue
            if int_subsumes(candidate, work):
                dominated = True
                break
        if not dominated:
            kept.append(work)
    return kept


# ----------------------------------------------------------------------
# Partitioning (Paganelli et al., BDR 2019) on the interned domain
# ----------------------------------------------------------------------
def int_connected_components(
    tuples: Sequence[IntTuple], domain: int
) -> tuple[list[list[IntTuple]], list[IntTuple]]:
    """Split an interned working set into connected components of the
    shared-value graph; all-null tuples (no component) come back separately.

    Union-find keyed by packed ``position * domain + code`` ints; component
    membership order preserves input order, so each component's closure
    seeds in the same relative order as a global run -- the partition-first
    determinism argument (merging and subsumption both require a shared
    value, so neither crosses a component boundary).
    """
    parent = list(range(len(tuples)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner_of: dict[int, int] = {}
    all_null: set[int] = set()
    for i, work in enumerate(tuples):
        if not work.mask:
            all_null.add(i)
            continue
        for position, code in enumerate(work.codes):
            if not code:
                continue
            value = position * domain + code
            owner = owner_of.setdefault(value, i)
            if owner != i:
                parent[find(i)] = find(owner)

    groups: dict[int, list[IntTuple]] = {}
    for i, work in enumerate(tuples):
        if i in all_null:
            continue
        groups.setdefault(find(i), []).append(work)
    return list(groups.values()), [tuples[i] for i in sorted(all_null)]


# ----------------------------------------------------------------------
# The partition-first solver every interned FD algorithm shares
# ----------------------------------------------------------------------
def solve_interned(work: Sequence[WorkTuple]) -> list[WorkTuple]:
    """Full FD pipeline on the interned domain: intern, dedupe, partition,
    then close + subsume each component independently.

    The call builds its own :class:`ValueInterner` (see the module
    docstring's interning contract).  Returns object-level tuples with
    ``PRODUCED`` null placeholders (null kinds are recomputed from
    provenance by the caller's ``canonicalize_null_kinds`` pass).

    The phase structure is emitted as an ``integrate.fd`` span tree under
    the ambient tracer -- or not at all when tracing is disabled;
    :func:`fd_stats_from_span` reads the ``--explain`` payload off that
    span.  The interleaved per-component closure/subsume loop keeps local
    ``perf_counter`` accumulation (a span per component would allocate
    inside the hot loop) and enters the tree as two pre-measured children.
    """
    with trace.span("integrate.fd") as fd_span:
        with trace.span("integrate.intern"):
            interner = ValueInterner()
            ints = intern_tuples(work, interner)
            domain = interner.domain
            ranks = interner.sort_ranks()

        with trace.span("integrate.partition"):
            components, all_null = int_connected_components(
                int_dedupe(ints), domain
            )

        closure_seconds = 0.0
        subsume_seconds = 0.0
        solved = []
        for component in components:
            closure_started = perf_counter()
            closed = interned_closure(component, domain, ranks)
            closure_seconds += perf_counter() - closure_started
            subsume_started = perf_counter()
            solved.extend(interned_remove_subsumed(closed, domain))
            subsume_seconds += perf_counter() - subsume_started
        trace.record("integrate.closure", wall_s=closure_seconds)
        trace.record("integrate.subsume", wall_s=subsume_seconds)
        if not solved and all_null:
            # Degenerate input: only all-null tuples exist; keep one
            # (already provenance-folded by the dedupe above).
            solved = all_null[:1]

        final = [unintern_tuple(t, interner) for t in solved]
        fd_span.add(
            input_tuples=len(ints),
            output_tuples=len(final),
            components=len(components),
            largest_component=max((len(c) for c in components), default=0),
            all_null_tuples=len(all_null),
            domain=domain,
        )
        size_histogram = metrics.histogram(
            "fd.component_size", metrics.DEFAULT_SIZE_BUCKETS
        )
        for component in components:
            size_histogram.observe(len(component))
        metrics.counter("fd.solves").inc()
    return final


def fd_stats_from_span(fd_span: "trace.Span") -> dict:
    """The ``--explain`` kernel-stats payload, read off a closed
    ``integrate.fd`` span: phase children become ``*_seconds``, span
    counters carry the sizes.  Keys match the historical hand-rolled
    dict exactly (a phase the span has no child for is simply absent)."""
    counters = fd_span.counters
    stats = {
        key: counters[key]
        for key in (
            "input_tuples",
            "output_tuples",
            "components",
            "largest_component",
            "all_null_tuples",
            "domain",
        )
        if key in counters
    }
    for phase, key in (
        ("integrate.intern", "intern_seconds"),
        ("integrate.partition", "partition_seconds"),
        ("integrate.closure", "closure_seconds"),
    ):
        child = fd_span.child(phase)
        if child is not None:
            stats[key] = child.wall_s
    subsume = fd_span.child("integrate.subsume")
    if subsume is not None:
        stats["subsume_seconds"] = subsume.wall_s
    return stats
