"""Unit tests for incremental Full Disjunction (AliteFD.integrate_incremental)."""

from __future__ import annotations

import pytest

from repro.integration import AliteFD, OuterJoinIntegrator
from repro.integration.tuples import cell_key
from repro.table import MISSING, Table


def values(result):
    return sorted(tuple(map(cell_key, row)) for row in result.rows)


class TestIncrementalFD:
    def test_prefix_equality_on_paper_tables(self, vaccine_tables):
        fd = AliteFD()
        rolling = fd.integrate([vaccine_tables[0]])
        for i, table in enumerate(vaccine_tables[1:], start=2):
            rolling = fd.integrate_incremental(rolling, table)
            batch = fd.integrate(vaccine_tables[:i])
            assert values(rolling) == values(batch)
            assert sorted(map(sorted, rolling.provenance)) == sorted(
                map(sorted, batch.provenance)
            )

    def test_subsumed_tuple_can_still_merge_later(self):
        # t2 = (JnJ, ±) is subsumed after integrating the first two tables,
        # but a third table can revive it: incremental must not lose it.
        a = Table(["Vaccine", "Approver"], [("Pfizer", "FDA"), ("JnJ", MISSING)], name="A")
        b = Table(["Vaccine", "Country"], [("JnJ", "USA")], name="B")
        c = Table(["Vaccine", "Trial"], [("JnJ", "phase-3")], name="C")
        fd = AliteFD()
        two = fd.integrate([a, b])
        three_incremental = fd.integrate_incremental(two, c)
        three_batch = fd.integrate([a, b, c])
        assert values(three_incremental) == values(three_batch)

    def test_new_columns_are_appended(self, vaccine_tables):
        fd = AliteFD()
        base = fd.integrate(vaccine_tables[:2])
        extended = fd.integrate_incremental(base, vaccine_tables[2])
        assert set(extended.columns) == {"Vaccine", "Approver", "Country"}

    def test_tid_numbering_continues(self, vaccine_tables):
        fd = AliteFD()
        base = fd.integrate(vaccine_tables[:2])  # t1..t4
        extended = fd.integrate_incremental(base, vaccine_tables[2])
        assert extended.tid_sources["t5"] == ("T6", 0)
        assert extended.tid_sources["t6"] == ("T6", 1)

    def test_null_kinds_still_canonical(self, vaccine_tables):
        fd = AliteFD()
        rolling = fd.integrate([vaccine_tables[0]])
        for table in vaccine_tables[1:]:
            rolling = fd.integrate_incremental(rolling, table)
        batch = fd.integrate(vaccine_tables)
        assert rolling.equals(batch, ignore_row_order=True)  # incl. null kinds

    def test_requires_alite_produced_input(self, vaccine_tables):
        oj = OuterJoinIntegrator().integrate(vaccine_tables)
        stripped = type(oj)(
            oj.columns, oj.rows, oj.provenance, oj.tid_sources, algorithm="outer_join"
        )
        with pytest.raises(ValueError, match="input tuples"):
            AliteFD().integrate_incremental(stripped, vaccine_tables[0].with_name("X"))

    def test_incremental_from_single_table(self, covid_query):
        fd = AliteFD()
        base = fd.integrate([covid_query])
        more = Table(["City", "Mayor"], [("Berlin", "K. Wegner")], name="mayors")
        extended = fd.integrate_incremental(base, more)
        assert extended.find_fact(City="Berlin", Mayor="K. Wegner") is not None
