#!/usr/bin/env python
"""Append one PR's end-to-end record to ``BENCH_E2E.json``.

    python tools/record_e2e.py PARENT.json CHANGE.json --pr 15

Both inputs are what ``benchmarks/e2e/run.py --out`` wrote (one or more
runs each; ``--repeat N`` or several seeds give the spreads a meaning),
the first at the parent commit, the second with the change applied.  The
record holds, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median, spread ``(q3 - q1) / median`` and run count, next to
the commits and the host the runs were taken on.

``BENCH_E2E.json`` is a history: one JSON object per line, opened for
append only, so a record once written is never rewritten.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402 - the bounds checker's run reader and spread


def side(document: dict, workload: str, metric: str) -> dict | None:
    samples = compare.values(document, workload, metric)
    if not samples:
        return None
    return {
        "median": statistics.median(samples),
        "spread": compare.spread(samples),
        "n": len(samples),
    }


def build_record(parent: dict, change: dict, pr: int) -> dict:
    meta = change["meta"]
    workloads: dict[str, dict] = {}
    for workload in (w["name"] for w in compare.SPEC["workloads"]):
        for metric in (m["name"] for m in compare.SPEC["end_to_end"]):
            before = side(parent, workload, metric)
            after = side(change, workload, metric)
            if before and after:
                workloads.setdefault(workload, {})[metric] = {
                    "parent": before, "change": after,
                }
    return {
        "pr": pr,
        "commit": meta["commit"],
        "parent_commit": parent["meta"]["commit"],
        "scale": meta["scale"],
        "seconds": change["seconds"],
        "host": {key: meta[key] for key in ("nproc", "python", "numpy")},
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True, help="the PR this record is for")
    parser.add_argument("--history", type=Path, default=ROOT / "BENCH_E2E.json")
    args = parser.parse_args(argv)
    parent, change = (
        json.loads(path.read_text(encoding="utf-8")) for path in (args.parent, args.change)
    )
    record = build_record(parent, change, args.pr)
    if not record["workloads"]:
        print("record_e2e: the two files share no end-to-end cell; nothing recorded")
        return 1
    with args.history.open("a", encoding="utf-8") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"record_e2e: PR {args.pr} appended to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
