"""Prompt templates for query-table generation.

The demo's GPT-3 feature turns a prompt like *"a table about COVID-19 cases
with 5 rows and 5 columns"* into a query table.  Offline, each
:class:`TableTemplate` declares the columns a topic supports (each with a
deterministic value generator over the seed vocabularies) and the keywords
that route a prompt to it.  The substitution preserves what the pipeline
needs: a realistic, schema-ful table appears from a free-text prompt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ..datalake import seeds

__all__ = ["ColumnTemplate", "TableTemplate", "TEMPLATES", "match_template"]

ValueGen = Callable[[random.Random, int], object]


@dataclass(frozen=True)
class ColumnTemplate:
    """One generatable column: a name and a per-row value generator.

    The generator receives the RNG and the row index; row index lets keyed
    columns (cities, names) stay duplicate-free within one table.
    """

    name: str
    generate: ValueGen


def _keyed_column(name: str, pool: Sequence[str]) -> ColumnTemplate:
    """Duplicate-free column: row i takes the i-th item of a shuffled pool."""

    def generate(rng: random.Random, row: int) -> object:
        if row == 0 and not hasattr(rng, "_keyed_order"):
            pass  # state lives in the generator closure below instead
        return pool[row % len(pool)]

    # A closure-level shuffle would share state across tables; instead the
    # template shuffles lazily inside TableTemplate.generate (which owns the
    # per-table RNG).  Marker attribute tells it to.
    column = ColumnTemplate(name, generate)
    object.__setattr__(column, "keyed_pool", tuple(pool))
    return column


def _percent_column(name: str, low: int = 30, high: int = 95) -> ColumnTemplate:
    return ColumnTemplate(name, lambda rng, row: f"{rng.randint(low, high)}%")


def _count_column(name: str, low: int = 1, high: int = 5000) -> ColumnTemplate:
    def generate(rng: random.Random, row: int) -> object:
        value = rng.randint(low, high)
        if value >= 1000:
            return f"{value / 1000:.4g}k"
        return value

    return ColumnTemplate(name, generate)


def _float_column(name: str, low: float, high: float, digits: int = 1) -> ColumnTemplate:
    return ColumnTemplate(
        name, lambda rng, row: round(rng.uniform(low, high), digits)
    )


@dataclass(frozen=True)
class TableTemplate:
    """A topic: routing keywords plus the columns it can generate."""

    topic: str
    keywords: tuple[str, ...]
    columns: tuple[ColumnTemplate, ...]


TEMPLATES: tuple[TableTemplate, ...] = (
    TableTemplate(
        topic="covid",
        keywords=("covid", "pandemic", "vaccination", "cases", "virus", "health"),
        columns=(
            _keyed_column("City", list(seeds.CITIES)),
            ColumnTemplate(
                "Country",
                lambda rng, row: rng.choice(list(seeds.COUNTRIES)),
            ),
            _percent_column("Vaccination Rate"),
            _count_column("Total Cases", 100, 3_000_000),
            _float_column("Death Rate", 50, 400, 0),
        ),
    ),
    TableTemplate(
        topic="vaccines",
        keywords=("vaccine", "approval", "regulator", "drug"),
        columns=(
            _keyed_column("Vaccine", list(seeds.VACCINES)),
            ColumnTemplate(
                "Country",
                lambda rng, row: seeds.VACCINES[list(seeds.VACCINES)[row % len(seeds.VACCINES)]][1],
            ),
            ColumnTemplate(
                "Approver",
                lambda rng, row: seeds.VACCINES[list(seeds.VACCINES)[row % len(seeds.VACCINES)]][2],
            ),
            _percent_column("Efficacy", 50, 96),
            _count_column("Doses Administered", 1000, 5_000_000),
        ),
    ),
    TableTemplate(
        topic="people",
        keywords=("people", "person", "employee", "staff", "roster", "directory"),
        columns=(
            ColumnTemplate("First Name", lambda rng, row: rng.choice(seeds.FIRST_NAMES)),
            ColumnTemplate("Last Name", lambda rng, row: rng.choice(seeds.LAST_NAMES)),
            ColumnTemplate("Company", lambda rng, row: rng.choice(list(seeds.COMPANIES))),
            _float_column("Salary", 40_000, 180_000, 0),
            ColumnTemplate("City", lambda rng, row: rng.choice(list(seeds.CITIES))),
        ),
    ),
    TableTemplate(
        topic="restaurants",
        keywords=("restaurant", "food", "cuisine", "dining", "menu"),
        columns=(
            ColumnTemplate(
                "Restaurant",
                lambda rng, row: f"{rng.choice(seeds.LAST_NAMES)}'s {rng.choice(seeds.CUISINES)}",
            ),
            ColumnTemplate("Cuisine", lambda rng, row: rng.choice(seeds.CUISINES)),
            _keyed_column("City", list(seeds.CITIES)),
            _float_column("Rating", 1.0, 5.0),
            _count_column("Reviews", 5, 4000),
        ),
    ),
    TableTemplate(
        topic="education",
        keywords=("school", "course", "student", "education", "university"),
        columns=(
            _keyed_column("Subject", list(seeds.SCHOOL_SUBJECTS)),
            ColumnTemplate("Teacher", lambda rng, row: rng.choice(seeds.LAST_NAMES)),
            _count_column("Enrolled", 5, 500),
            _percent_column("Pass Rate", 40, 100),
            ColumnTemplate("City", lambda rng, row: rng.choice(list(seeds.CITIES))),
        ),
    ),
    TableTemplate(
        topic="sports",
        keywords=("sport", "team", "match", "league", "tournament"),
        columns=(
            _keyed_column("Sport", list(seeds.SPORTS)),
            ColumnTemplate("Country", lambda rng, row: rng.choice(list(seeds.COUNTRIES))),
            _count_column("Players", 2, 30),
            _count_column("Fans", 1000, 5_000_000),
            _float_column("Avg Score", 0, 120, 1),
        ),
    ),
    TableTemplate(
        topic="weather",
        keywords=("weather", "climate", "temperature", "rainfall", "forecast"),
        columns=(
            _keyed_column("City", list(seeds.CITIES)),
            _float_column("Temperature", -15, 42, 1),
            _float_column("Rainfall", 0, 300, 1),
            _percent_column("Humidity", 20, 100),
            ColumnTemplate("Season", lambda rng, row: rng.choice(
                ("Winter", "Spring", "Summer", "Autumn"))),
        ),
    ),
    TableTemplate(
        topic="housing",
        keywords=("housing", "rent", "property", "real estate", "apartment"),
        columns=(
            _keyed_column("City", list(seeds.CITIES)),
            _float_column("Median Rent", 400, 4500, 0),
            _float_column("Price per sqm", 800, 25000, 0),
            _percent_column("Vacancy Rate", 1, 15),
            _count_column("Listings", 50, 40_000),
        ),
    ),
    TableTemplate(
        topic="transit",
        keywords=("transit", "transport", "metro", "bus", "commute", "traffic"),
        columns=(
            _keyed_column("City", list(seeds.CITIES)),
            _count_column("Daily Riders", 1000, 8_000_000),
            _count_column("Stations", 5, 450),
            _float_column("Avg Commute", 10, 90, 0),
            _percent_column("On-time Rate", 55, 99),
        ),
    ),
    TableTemplate(
        topic="energy",
        keywords=("energy", "electricity", "power", "renewable", "emissions"),
        columns=(
            _keyed_column("Country", list(seeds.COUNTRIES)),
            _percent_column("Renewable Share", 2, 98),
            _count_column("Capacity MW", 100, 1_500_000),
            _float_column("CO2 per Capita", 0.2, 20, 1),
            _float_column("Price per kWh", 0.05, 0.6, 2),
        ),
    ),
)


def match_template(prompt: str) -> TableTemplate:
    """Route a prompt to the best-matching template (keyword votes; the
    first template -- covid, matching the paper's demo -- is the fallback)."""
    lowered = prompt.lower()
    best = TEMPLATES[0]
    best_votes = 0
    for template in TEMPLATES:
        votes = sum(1 for keyword in template.keywords if keyword in lowered)
        if votes > best_votes:
            best = template
            best_votes = votes
    return best
