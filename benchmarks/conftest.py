"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact (figure/example) or one
claim-level experiment of the paper (abstract in PAPER.md).  Timing comes
from pytest-benchmark; each bench also prints the paper-style rows it
reproduces so `pytest benchmarks/ --benchmark-only -s` reads like the
evaluation section.  A paper-vs-measured scoreboard over them is ROADMAP.md
open item 8.
"""

from __future__ import annotations

import pytest

from repro.datalake.fixtures import covid_integration_set, vaccine_integration_set
from repro.datalake.synth import SyntheticLakeBuilder


@pytest.fixture
def covid_tables():
    return covid_integration_set()


@pytest.fixture
def vaccine_tables():
    return vaccine_integration_set()


@pytest.fixture(scope="session")
def bench_lake():
    """One medium synthetic lake shared by the discovery benchmarks."""
    return SyntheticLakeBuilder(
        seed=99, rows_per_table=14, null_rate=0.08, header_synonym_rate=0.4
    ).build(num_unionable=6, num_joinable=6, num_distractors=14)


def print_header(experiment: str, claim: str) -> None:
    print(f"\n{'=' * 72}\n{experiment}: {claim}\n{'=' * 72}")
