"""Compare two bench_e2e result files against BENCHMARK.json's bounds.

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is what ``run.py --out`` wrote (one or more runs; use
``--repeat N`` for more than one).  For every (end-to-end metric, workload)
pair it prints each side's median and one verdict:

* ``unresolved`` -- the run-to-run spread of either side, (q3 - q1) / median,
  is wider than the bound, so the pair can show neither harm nor its absence;
* ``regressed``  -- otherwise, if the change's median is worse than the
  parent's by more than the metric's bound;
* ``ok``         -- otherwise.

Exit code 1 if anything regressed.  Per-layer metrics have no bound and are
not judged here.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text("utf-8"))


def values(document: dict, workload: str, metric: str) -> list[float]:
    return [
        run[workload]["end_to_end"][metric]
        for run in document["runs"]
        if "end_to_end" in run.get(workload, {})
    ]


def spread(samples: list[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, float]:
    """(ok | regressed | unresolved, relative worsening of the medians)."""
    before, after = statistics.median(parent), statistics.median(change)
    worse = (after - before) / before
    if metric["better"] == "higher":
        worse = -worse
    if max(spread(parent), spread(change)) > metric["bound"]:
        return "unresolved", worse
    return ("regressed" if worse > metric["bound"] else "ok"), worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = (json.loads(Path(p).read_text("utf-8")) for p in argv)
    regressed = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            a = values(parent, workload, metric["name"])
            b = values(change, workload, metric["name"])
            if not a or not b:
                continue
            word, worse = verdict(metric, a, b)
            regressed += word == "regressed"
            print(
                f"{word:<10} {workload}.{metric['name']}: "
                f"{statistics.median(a):.6g} -> {statistics.median(b):.6g} {metric['unit']} "
                f"({worse:+.1%} worse, bound {metric['bound']:.0%}, "
                f"spread {spread(a):.1%} / {spread(b):.1%}, n={len(a)}/{len(b)})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
