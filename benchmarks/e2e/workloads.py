"""Seeded inputs of the end-to-end benchmark: two lakes and four request mixes.

Everything here is a pure function of ``(seed, scale)``: the same seed gives
the same lakes and the same request streams, and a request is addressed by
``(stream, index)`` so the oracle can regenerate exactly the table a client
thread sent without the harness keeping it.  The program under test sees
only the generated tables.  The vocabularies live in this file, not in
``repro.datalake.seeds``, so a change under ``src/`` cannot move the inputs.

Why these two lakes (see README.md for the full argument):

* ``lake_sharded`` draws join keys from a *small* vocabulary, as
  ``bench_shard`` does, so a query's posting lists span most of the lake and
  retrieval + scoring is real work on every shard.
* ``lake_single`` holds families of vertical fragments of one wide fact
  table, so an integrate request finds fragments that genuinely align and
  merge: alignment and Full Disjunction are real work, and every request is
  a fragment nobody stored, so nothing is served from the result cache.
"""

from __future__ import annotations

import bisect
import random
import zlib
from dataclasses import dataclass

from repro.table import MISSING, Table

CITIES = (
    "Berlin", "Munich", "Hamburg", "Manchester", "London", "Liverpool",
    "Barcelona", "Madrid", "Seville", "Toronto", "Vancouver", "Montreal",
    "Boston", "Chicago", "Seattle", "Delhi", "Mumbai", "Chennai",
    "Lyon", "Paris", "Nice", "Osaka", "Tokyo", "Kyoto",
)
ATTRIBUTES = tuple(f"attr_{i}" for i in range(10))
ATTRIBUTES_PER_FRAGMENT = 3
NULL_RATE = 0.08

KEY_COLUMN = "key"  # lake_sharded's join column
FRAGMENT_KEY = "Key"  # lake_single's join column
DISCOVER_K = 10
INTEGRATE_K = 4
ROWS = 16  # rows of every lake_sharded table and query
PROBE_SHARED_KEYS = 12  # of ROWS: a probe must rank its just-ingested table
ZIPF_S = 1.1


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration (``FULL`` is what BENCHMARK.json
    runs; ``SMOKE`` is the tier-1 test)."""

    sharded_tables: int
    shards: int
    families: int
    fragments: int
    fragment_rows: int
    key_pool: int
    hot_queries: int
    warm_cold: int  # cold discovers sent before timing (hydrates every shard worker)
    warm_integrates: int
    setups: int  # set-ups per run; setup_s is their mean
    writer_sleep_s: float  # ingest_mix: the writer's pause after each ingest + probe
    oracle_sample: int
    trace_discovers: int  # traced replay sizes, per mode of the live pass
    trace_integrates: int
    trace_ingests: int
    store_sample: int  # tables probed for store.load_table_ms / table_stats_ms


FULL = Scale(
    sharded_tables=240, shards=4,
    families=30, fragments=6, fragment_rows=20, key_pool=40,
    hot_queries=32, warm_cold=20, warm_integrates=6,
    setups=3, writer_sleep_s=1.0, oracle_sample=20,
    trace_discovers=20, trace_integrates=8, trace_ingests=3, store_sample=40,
)
SMOKE = Scale(
    sharded_tables=80, shards=4,
    families=20, fragments=4, fragment_rows=12, key_pool=24,
    hot_queries=8, warm_cold=4, warm_integrates=2,
    setups=1, writer_sleep_s=0.1, oracle_sample=20,
    trace_discovers=4, trace_integrates=2, trace_ingests=1, store_sample=8,
)


def _rng(seed: int, *parts: object) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and runs.
    return random.Random(":".join(str(p) for p in (seed, *parts)))


# ----------------------------------------------------------------------
# lake_sharded: small key vocabulary, three columns
# ----------------------------------------------------------------------
def key_vocabulary(scale: Scale) -> int:
    return max(64, scale.sharded_tables // 64)


def _keyed_rows(rng: random.Random, keys: list[str]) -> list[tuple]:
    return [
        (key, rng.choice(CITIES), rng.randrange(10_000) if rng.random() > 0.05 else MISSING)
        for key in keys
    ]


def _random_keys(rng: random.Random, scale: Scale) -> list[str]:
    vocab = key_vocabulary(scale)
    return [f"e{rng.randrange(vocab)}" for _ in range(ROWS)]


def sharded_lake(seed: int, scale: Scale) -> list[Table]:
    rng = _rng(seed, "lake_sharded")
    return [
        Table(
            [KEY_COLUMN, "city", f"metric_{t % 7}"],
            _keyed_rows(rng, _random_keys(rng, scale)),
            name=f"t{t:05d}",
        )
        for t in range(scale.sharded_tables)
    ]


def key_query(seed: int, scale: Scale, stream: str, index: int) -> Table:
    """Query ``index`` of ``stream``: 16 fresh rows nobody has sent before."""
    rng = _rng(seed, "key_query", stream, index)
    rows = [
        (key, rng.choice(CITIES), round(rng.random(), 4))
        for key in _random_keys(rng, scale)
    ]
    return Table([KEY_COLUMN, "city", "score"], rows, name=f"q_{stream}_{index}")


def new_table(seed: int, scale: Scale, stream: str, index: int) -> Table:
    """A table to ingest; ``zz_`` names never collide with the built lake."""
    rng = _rng(seed, "new_table", stream, index)
    return Table(
        [KEY_COLUMN, "city", "late_metric"],
        _keyed_rows(rng, _random_keys(rng, scale)),
        name=f"zz_{stream}_{index:04d}",
    )


def probe_for(table: Table, seed: int, scale: Scale) -> Table:
    """A discover query sharing 12 of 16 keys with *table*, so the freshly
    ingested table must appear in the answer once it is visible."""
    rng = _rng(seed, "probe", table.name)
    keys = list(table.column_arrays[0])[:PROBE_SHARED_KEYS]
    keys += _random_keys(rng, scale)[: ROWS - len(keys)]
    rows = [(key, rng.choice(CITIES), round(rng.random(), 4)) for key in keys]
    return Table([KEY_COLUMN, "city", "score"], rows, name=f"probe_{table.name}")


class ZipfPicker:
    """Bounded Zipf over ``n`` ranks (P(rank r) ~ 1 / r**s)."""

    def __init__(self, n: int, s: float = ZIPF_S):
        total = 0.0
        self._cumulative = []
        for rank in range(1, n + 1):
            total += 1.0 / rank**s
            self._cumulative.append(total)

    def pick(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random() * self._cumulative[-1])


# ----------------------------------------------------------------------
# lake_single: families of vertical fragments of a wide fact table
# ----------------------------------------------------------------------
def _fact_value(seed: int, key: str, attribute: str) -> str:
    # One value per (key, attribute) lake-wide: fragments never conflict,
    # so Full Disjunction merges them into wider facts.
    return f"{attribute}:{zlib.crc32(f'{seed}:{key}:{attribute}'.encode()) % 10_000}"


def _fragment(seed: int, scale: Scale, rng: random.Random, family: int, name: str) -> Table:
    attributes = rng.sample(ATTRIBUTES, ATTRIBUTES_PER_FRAGMENT)
    keys = rng.sample(range(scale.key_pool), min(scale.fragment_rows, scale.key_pool))
    rows = []
    for k in keys:
        key = f"f{family:03d}_e{k}"
        rows.append(
            (key,)
            + tuple(
                MISSING if rng.random() < NULL_RATE else _fact_value(seed, key, a)
                for a in attributes
            )
        )
    return Table([FRAGMENT_KEY, *attributes], rows, name=name)


def single_lake(seed: int, scale: Scale) -> list[Table]:
    rng = _rng(seed, "lake_single")
    return [
        _fragment(seed, scale, rng, family, f"fam{family:03d}_frag{j}")
        for family in range(scale.families)
        for j in range(scale.fragments)
    ]


def fragment_query(seed: int, scale: Scale, stream: str, index: int) -> Table:
    """A fresh fragment of a seeded family: new key sample, new attribute
    subset, values consistent with the stored fragments."""
    rng = _rng(seed, "fragment_query", stream, index)
    family = rng.randrange(scale.families)
    return _fragment(seed, scale, rng, family, f"q_{stream}_{index}")


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    lake: str  # "sharded" | "single"
    primary: str  # the op whose latency is latency_p50_ms / latency_p95_ms
    reads: str  # "fresh": never-seen queries | "hot": the pre-warmed set | "mixed": half each
    writer: bool = False  # the second client thread writes (ingest, probe, sleep)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("discover_cold", "sharded", "discover", "fresh"),
        Workload("discover_hot", "sharded", "discover", "hot"),
        Workload("integrate_mix", "single", "integrate", "fresh"),
        Workload("ingest_mix", "sharded", "discover", "mixed", writer=True),
    )
}


def lake_tables(workload: Workload, seed: int, scale: Scale) -> list[Table]:
    return sharded_lake(seed, scale) if workload.lake == "sharded" else single_lake(seed, scale)

