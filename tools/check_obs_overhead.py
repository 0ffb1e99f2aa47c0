#!/usr/bin/env python
"""CI smoke: disabled tracing must stay cheap vs a fully stubbed baseline.

The observability layer's contract (ISSUE 7) is that when no tracer is
ambient, instrumentation reduces to one ``threading.local`` read per
``trace.span`` call (returning the shared no-op span) and one lock-free
counter bump per metrics call.  This tool measures that contract instead
of trusting it:

* **shipped** -- the pipeline exactly as deployed, tracing disabled
  (no ambient tracer, no trace sink);
* **stubbed** -- the same pipeline with ``repro.obs.trace`` /
  ``repro.obs.metrics`` module entry points monkeypatched to bare
  no-ops, which is the closest runnable approximation of "the
  instrumentation was never written".

Every call site imports the *modules* (``from ..obs import metrics,
trace``) and resolves ``trace.span`` / ``metrics.counter`` at call time
-- the convention exists precisely so this tool can swap the functions
globally without touching call sites.

Both variants run the same warm workload (discover over a synthetic
lake + an ALITE FD integrate).  Measurement is noise-hardened for
shared/starved CI hosts:

* ``time.process_time`` (own-CPU seconds) instead of wall clock -- the
  workload is single-threaded pure compute, and wall clock on a
  timesharing host mostly measures when the scheduler deschedules the
  process (tens of percent of swing run to run);
* paired back-to-back samples, alternating which arm goes first, scored
  as the **median of per-pair ratios** -- slow multiplicative drift
  (thermal/frequency state) hits both arms of a pair roughly equally
  and cancels in the ratio, and the median sheds the outlier pairs a
  busy host still produces;
* GC disabled during timing (collected between timed regions) so a
  cycle cannot land inside one arm only.

Even so, a single ~25ms CPU-time sample on a noisy shared host swings
several percent, so the threshold (default 8%) is set to what the
measurement can actually resolve: the regression this smoke exists to
catch is span/record allocation creeping into per-row hot loops, which
shows up as tens of percent, not single digits.  Measured steady-state
overhead is ~0-3%.  Fails (exit 1) if the median shipped/stubbed ratio
exceeds ``1 + --threshold``.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
from statistics import median
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.pipeline import Dialite  # noqa: E402
from repro.datalake.catalog import DataLake  # noqa: E402
from repro.obs import metrics, trace  # noqa: E402
from repro.table.table import Table  # noqa: E402


# ----------------------------------------------------------------------
# The stubbed baseline: repro.obs entry points as bare no-ops
# ----------------------------------------------------------------------
class _StubSpan:
    """What ``trace.span`` hands instrumented code, doing nothing."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, **counters):
        pass


_STUB_SPAN = _StubSpan()


class _StubInstrument:
    def inc(self, amount=1):
        pass

    def set(self, value):
        pass

    def add(self, amount):
        pass

    def observe(self, value):
        pass

    def observe_ms(self, value):
        pass

    def observe_seconds(self, value):
        pass


_STUB_INSTRUMENT = _StubInstrument()

_TRACE_PATCH = {
    "span": lambda name, **counters: _STUB_SPAN,
    "record": lambda name, wall_s=0.0, cpu_s=None, **counters: None,
    "current_tracer": lambda: None,
}
_METRICS_PATCH = {
    "counter": lambda name: _STUB_INSTRUMENT,
    "gauge": lambda name: _STUB_INSTRUMENT,
    "histogram": lambda name, buckets=None: _STUB_INSTRUMENT,
}


class _stubbed_obs:
    """Swap the obs entry points for no-ops; restore on exit."""

    def __enter__(self):
        self._saved = (
            {k: getattr(trace, k) for k in _TRACE_PATCH},
            {k: getattr(metrics, k) for k in _METRICS_PATCH},
        )
        for key, value in _TRACE_PATCH.items():
            setattr(trace, key, value)
        for key, value in _METRICS_PATCH.items():
            setattr(metrics, key, value)
        return self

    def __exit__(self, *exc):
        saved_trace, saved_metrics = self._saved
        for key, value in saved_trace.items():
            setattr(trace, key, value)
        for key, value in saved_metrics.items():
            setattr(metrics, key, value)
        return False


# ----------------------------------------------------------------------
# Workload: warm discover + integrate over a synthetic lake
# ----------------------------------------------------------------------
def build_lake(num_tables: int, rows: int, seed: int = 7) -> DataLake:
    rng = random.Random(seed)
    vocab = [f"ent{v:04d}" for v in range(num_tables * 4)]
    lake = DataLake()
    for t in range(num_tables):
        key_col = [rng.choice(vocab) for _ in range(rows)]
        rows_out = [
            (key_col[r], f"x{rng.randrange(1000)}", f"y{rng.randrange(50)}")
            for r in range(rows)
        ]
        lake.add(Table(["Entity", f"Attr{t % 5}", "Group"], rows_out, name=f"t{t:03d}"))
    return lake


def build_workload(num_tables: int = 48, rows: int = 24, queries: int = 4):
    lake = build_lake(num_tables, rows)
    pipeline = Dialite(lake).fit()
    rng = random.Random(13)
    vocab = [f"ent{v:04d}" for v in range(num_tables * 4)]
    query_tables = [
        Table(
            ["Entity"],
            [(rng.choice(vocab),) for _ in range(8)],
            name=f"q{i}",
        )
        for i in range(queries)
    ]

    def workload() -> None:
        for query in query_tables:
            outcome = pipeline.discover(query, k=4, query_column="Entity")
            pipeline.integrate(outcome.integration_set[:4])

    return workload


def measure(workload, runs: int) -> tuple[float, float, float]:
    """``runs`` paired samples -> (median shipped/stubbed ratio, and the
    two arms' median CPU seconds for the report line)."""
    shipped = []
    stubbed = []

    def run_shipped() -> float:
        gc.collect()
        start = time.process_time()
        workload()
        return time.process_time() - start

    def run_stubbed() -> float:
        with _stubbed_obs():
            gc.collect()
            start = time.process_time()
            workload()
            return time.process_time() - start

    gc.disable()
    try:
        for i in range(runs):
            if i % 2:
                b = run_stubbed()
                a = run_shipped()
            else:
                a = run_shipped()
                b = run_stubbed()
            shipped.append(a)
            stubbed.append(b)
    finally:
        gc.enable()
    ratios = [a / b for a, b in zip(shipped, stubbed)]
    return median(ratios), median(shipped), median(stubbed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=50, help="paired repetitions")
    parser.add_argument(
        "--threshold", type=float, default=0.08,
        help="max allowed median shipped/stubbed ratio - 1 (default 0.08)",
    )
    args = parser.parse_args()

    workload = build_workload()
    workload()  # warm both code paths and every lazy cache before timing
    with _stubbed_obs():
        workload()

    ratio, shipped_s, stubbed_s = measure(workload, args.runs)
    overhead = ratio - 1.0
    print(
        f"obs overhead smoke: shipped {shipped_s * 1000:.1f}ms, "
        f"stubbed baseline {stubbed_s * 1000:.1f}ms, "
        f"overhead {overhead * 100:+.2f}% (threshold {args.threshold * 100:.0f}%, "
        f"median of {args.runs} paired run ratios)"
    )
    if overhead > args.threshold:
        print("obs overhead smoke FAILED: disabled tracing is not cheap enough")
        return 1
    print("obs overhead smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
