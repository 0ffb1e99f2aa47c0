"""Unit tests for the interned FD kernel primitives (repro.integration.intern)."""

from __future__ import annotations

import inspect
import pickle

import pytest

from repro.integration import AliteFD, joinable, merge_tuples, subsumes
from repro.integration.intern import (
    NULL_CODE,
    ValueInterner,
    fd_stats_from_span,
    int_connected_components,
    int_dedupe,
    int_subsumes,
    intern_tuples,
    interned_closure,
    solve_interned,
    unintern_tuple,
)
from repro.integration.subsume import connected_components
from repro.integration.tuples import WorkTuple, cell_key, normalized_key
from repro.obs import trace
from repro.obs.trace import Tracer, activate
from repro.table import MISSING, PRODUCED, Table


def wt(*cells, tids=("t1",)):
    return WorkTuple(cells=tuple(cells), tids=frozenset(tids))


def interned(*cells, tids=("t1",), interner=None):
    interner = interner if interner is not None else ValueInterner()
    return intern_tuples([wt(*cells, tids=tids)], interner)[0], interner


def solve_traced(tuples):
    """``solve_interned`` under a local tracer -> (facts, the kernel stats
    read off its ``integrate.fd`` span, the first span the tracer opens)."""
    tracer = Tracer()
    with activate(tracer):
        final = solve_interned(tuples)
    return final, fd_stats_from_span(tracer.root)


class TestValueInterner:
    def test_nulls_of_both_kinds_collapse_to_zero(self):
        interner = ValueInterner()
        assert interner.code(MISSING) == NULL_CODE
        assert interner.code(PRODUCED) == NULL_CODE

    def test_codes_are_stable_and_value_keyed(self):
        interner = ValueInterner()
        a = interner.code("a")
        assert interner.code("a") == a
        assert interner.code("b") != a

    def test_int_and_equal_float_share_a_code_bool_does_not(self):
        interner = ValueInterner()
        one = interner.code(1)
        assert interner.code(1.0) == one
        assert interner.code(True) != one

    def test_representative_cell_is_first_interned(self):
        interner = ValueInterner()
        code = interner.code(1)
        interner.code(1.0)
        assert interner.cell(code) == 1
        assert isinstance(interner.cell(code), int)

    def test_sort_ranks_are_order_isomorphic_to_cell_keys(self):
        interner = ValueInterner()
        cells = ["z", "a", 3, 1.5, True, "m"]
        codes = [interner.code(c) for c in cells]
        ranks = interner.sort_ranks()
        for i, code_i in enumerate(codes):
            for j, code_j in enumerate(codes):
                assert (ranks[code_i] < ranks[code_j]) == (
                    cell_key(cells[i]) < cell_key(cells[j])
                )


class TestIntTuple:
    def test_mask_marks_non_null_positions(self):
        work, _ = interned("a", MISSING, "b", PRODUCED)
        assert work.mask == 0b101

    def test_pickle_round_trip(self):
        work, _ = interned("a", MISSING, tids=("t3", "t7"))
        clone = pickle.loads(pickle.dumps(work))
        assert clone.codes == work.codes
        assert clone.mask == work.mask
        assert clone.tids == work.tids

    def test_unintern_restores_representative_cells(self):
        interner = ValueInterner()
        [work] = intern_tuples([wt("a", MISSING, 1)], interner)
        restored = unintern_tuple(work, interner)
        assert restored.cells == ("a", PRODUCED, 1)  # kinds re-derived later
        assert restored.tids == work.tids


class TestNormalizedKey:
    def test_keys_a_work_tuple_cell_by_cell(self):
        work = wt("a", MISSING, 1, 1.0, True, PRODUCED, "1")
        assert normalized_key(work) == tuple(cell_key(c) for c in work.cells)

    def test_takes_a_work_tuple_not_a_cell_sequence(self):
        # A lone cell is keyed by cell_key: there is no tuple-of-one round
        # trip, because a bare cell sequence is not a WorkTuple.
        with pytest.raises(AttributeError):
            normalized_key(("a",))


class TestPredicateParity:
    """The interned predicates agree with the object-level predicates:
    ``int_subsumes`` called directly, joinability and merge (which the
    closure inlines) through ``interned_closure`` over the pair."""

    CASES = [
        (("a", "b", PRODUCED), ("a", PRODUCED, "c")),
        (("a", "b"), ("a", "x")),
        (("a", PRODUCED), (PRODUCED, "b")),
        ((MISSING,), (MISSING,)),
        ((1,), (1.0,)),
        ((True,), (1,)),
        ((True, "x"), (True, "x")),
        (("a", "b", "c"), ("a", "b", MISSING)),
    ]

    @staticmethod
    def close_pair(cells_a, cells_b):
        """``(code vector of a cell vector, the pair, the pair's closure)``."""
        interner = ValueInterner()
        pair = intern_tuples(
            [wt(*cells_a, tids=("t1",)), wt(*cells_b, tids=("t2",))], interner
        )
        closed = interned_closure(int_dedupe(pair), interner.domain, interner.sort_ranks())
        return (lambda cells: tuple(map(interner.code, cells))), pair, closed

    def test_joinable_parity(self):
        for cells_a, cells_b in self.CASES:
            codes, (a, b), closed = self.close_pair(cells_a, cells_b)
            expected = {a.codes, b.codes}
            if joinable(cells_a, cells_b):
                expected.add(codes(merge_tuples(wt(*cells_a), wt(*cells_b)).cells))
            assert {t.codes for t in closed} == expected, (cells_a, cells_b)

    def test_subsumes_parity(self):
        for cells_a, cells_b in self.CASES:
            interner = ValueInterner()
            a, b = intern_tuples(
                [wt(*cells_a, tids=("t1",)), wt(*cells_b, tids=("t2",))], interner
            )
            assert int_subsumes(a, b) == subsumes(cells_a, cells_b), (cells_a, cells_b)

    def test_merge_parity(self):
        cells_a, cells_b = ("a", PRODUCED, "c"), ("a", "b", PRODUCED)
        codes, pair, closed = self.close_pair(cells_a, cells_b)
        [merged] = [t for t in closed if t not in pair]
        object_merged = merge_tuples(wt(*cells_a), wt(*cells_b, tids=("t2",)))
        assert merged.codes == codes(object_merged.cells)
        assert merged.tids == object_merged.tids == frozenset({"t1", "t2"})
        assert merged.mask == 0b111

    def test_bool_no_longer_joins_equal_int(self):
        # The object predicates now agree with values_equal/cell_key:
        # bool stays distinct from int in data context.
        assert not joinable((True,), (1,))
        assert not subsumes((True,), (1,))
        assert joinable((1,), (1.0,))


class TestComponentsAndSolve:
    def test_int_components_match_object_components(self):
        tuples = [
            wt("a", PRODUCED, tids=("t1",)),
            wt("a", "b", tids=("t2",)),
            wt(PRODUCED, "z", tids=("t3",)),
            wt(PRODUCED, PRODUCED, tids=("t4",)),
        ]
        object_components, object_null = connected_components(tuples)
        interner = ValueInterner()
        ints = intern_tuples(tuples, interner)
        components, all_null = int_connected_components(ints, interner.domain)
        assert sorted(len(c) for c in components) == sorted(
            len(c) for c in object_components
        )
        assert len(all_null) == len(object_null) == 1
        assert all_null[0].tids == frozenset({"t4"})

    def test_dedupe_folds_to_minimal_witness(self):
        interner = ValueInterner()
        ints = intern_tuples(
            [
                wt("a", "b", tids=("t2", "t3")),
                wt("a", "b", tids=("t1",)),
            ],
            interner,
        )
        [unique] = int_dedupe(ints)
        assert unique.tids == frozenset({"t1"})

    def test_solve_interned_records_stats(self):
        tuples = [
            wt("k1", "x", PRODUCED, tids=("t1",)),
            wt("k1", PRODUCED, "y", tids=("t2",)),
            wt("k2", "z", PRODUCED, tids=("t3",)),
        ]
        final, stats = solve_traced(tuples)
        assert {tuple(w.cells) for w in final} == {
            ("k1", "x", "y"),
            ("k2", "z", PRODUCED),
        }
        assert stats["components"] == 2
        assert stats["input_tuples"] == 3
        assert stats["output_tuples"] == 2
        assert stats["domain"] == 6  # k1 x y k2 z + the null code
        for key in ("intern_seconds", "partition_seconds", "closure_seconds",
                    "subsume_seconds"):
            assert stats[key] >= 0.0

    def test_solve_interned_degenerate_all_null(self):
        tuples = [wt(MISSING, MISSING, tids=("t1",)), wt(MISSING, MISSING, tids=("t2",))]
        final, stats = solve_traced(tuples)
        assert len(final) == 1
        assert final[0].tids == frozenset({"t1"})
        assert stats["components"] == 0
        assert stats["all_null_tuples"] == 1  # the two fold in the dedupe
        assert stats["domain"] == 1


class TestPerCallRepresentatives:
    def test_shared_interner_spellings_do_not_leak_across_calls(self):
        # One long-lived AliteFD integrates a table spelling a value 1.0,
        # then an unrelated table spelling it 1: the second result must
        # render the *second call's* spelling, not the first call's.  Holds
        # by construction since each call owns its interner; kept as the
        # guard against a regression to state shared between calls.
        from repro.integration import AliteFD
        from repro.table import Table

        fd = AliteFD()
        fd.integrate([Table(["x", "y"], [(1.0, "p")], name="A")])
        result = fd.integrate([Table(["x", "y"], [(1, "q")], name="B")])
        cell = result.rows[0][result.column_index("x")]
        assert cell == 1 and isinstance(cell, int) and not isinstance(cell, bool)


class TestCallOwnedInterner:
    """The interner's scope is one call: nothing to pass in, nothing kept."""

    def test_integrator_keeps_nothing_between_calls(self):
        fd = AliteFD()
        first = fd.integrate([Table(["x", "y"], [("a", "p"), ("b", "q")], name="A")])
        fd.integrate_incremental(first, Table(["x", "z"], [("a", "r")], name="B"))
        assert "__init__" not in vars(AliteFD)
        assert vars(fd) == {}

    def test_removed_parameters_fail_like_any_unknown_argument(self):
        with pytest.raises(TypeError):
            AliteFD(interner=ValueInterner())
        with pytest.raises(TypeError):
            AliteFD(8)
        assert list(inspect.signature(solve_interned).parameters) == ["work"]
        assert list(inspect.signature(unintern_tuple).parameters) == [
            "work", "interner",
        ]

    def test_no_tracer_is_built_when_tracing_is_disabled(self, monkeypatch):
        """Untraced FD calls go through ``trace.span`` / ``trace.record``
        (shared no-op span, zero allocation) and never construct a
        tracer of their own."""
        def forbidden(*args, **kwargs):
            raise AssertionError("an untraced FD call built a Tracer")

        monkeypatch.setattr(trace, "Tracer", forbidden)
        assert trace.current_tracer() is None
        tables = [
            Table(["City", "Pop"], [("Oslo", "1"), ("Paris", "2")], name="a"),
            Table(["City", "Area"], [("Oslo", "10"), ("Rome", "30")], name="b"),
        ]
        fd = AliteFD()
        first = fd.integrate(tables[:1])
        assert fd.integrate_incremental(first, tables[1]).num_rows == 3
        assert fd.integrate(tables).num_rows == 3
