"""The paper's worked-example tables, transcribed exactly.

Figures 2/3 (COVID cases, tables T1-T3) and Figures 7/8 (COVID vaccines,
tables T4-T6) of the DIALITE paper, including the input missing nulls
(``±``).  These drive the exactness tests and benchmarks E1-E4 and the
examples; the figures they reproduce are the paper's (abstract in
PAPER.md), and ROADMAP.md open item 8 tracks a paper-vs-measured
scoreboard over them.
"""

from __future__ import annotations

from ..table.table import Table
from ..table.values import MISSING

__all__ = [
    "covid_query_table",
    "covid_unionable_table",
    "covid_joinable_table",
    "covid_integration_set",
    "vaccine_integration_set",
]


def covid_query_table() -> Table:
    """T1, the query table of Example 1 (tuples t1-t3)."""
    return Table(
        ["Country", "City", "Vaccination Rate"],
        [
            ("Germany", "Berlin", "63%"),
            ("England", "Manchester", "78%"),
            ("Spain", "Barcelona", "82%"),
        ],
        name="T1",
    )


def covid_unionable_table() -> Table:
    """T2, the retrieved unionable table (tuples t4-t6; t5 has a missing
    vaccination rate, the ``±`` of Figure 2)."""
    return Table(
        ["Country", "City", "Vaccination Rate"],
        [
            ("Canada", "Toronto", "83%"),
            ("Mexico", "Mexico City", MISSING),
            ("USA", "Boston", "62%"),
        ],
        name="T2",
    )


def covid_joinable_table() -> Table:
    """T3, the retrieved joinable table (tuples t7-t10)."""
    return Table(
        ["City", "Total Cases", "Death Rate"],
        [
            ("Berlin", "1.4M", 147),
            ("Barcelona", "2.68M", 275),
            ("Boston", "263k", 335),
            ("New Delhi", "2M", 158),
        ],
        name="T3",
    )


def covid_integration_set() -> list[Table]:
    """The Example 2 integration set: [T1, T2, T3]."""
    return [covid_query_table(), covid_unionable_table(), covid_joinable_table()]


def vaccine_integration_set() -> list[Table]:
    """T4, T5, T6 of Figure 7 (tuples t11-t16), with their missing nulls.

    T4(Vaccine, Approver), T5(Country, Approver), T6(Vaccine, Country).
    """
    t4 = Table(
        ["Vaccine", "Approver"],
        [
            ("Pfizer", "FDA"),
            ("JnJ", MISSING),
        ],
        name="T4",
    )
    t5 = Table(
        ["Country", "Approver"],
        [
            ("United States", "FDA"),
            ("USA", MISSING),
        ],
        name="T5",
    )
    t6 = Table(
        ["Vaccine", "Country"],
        [
            ("J&J", "United States"),
            ("JnJ", "USA"),
        ],
        name="T6",
    )
    return [t4, t5, t6]
