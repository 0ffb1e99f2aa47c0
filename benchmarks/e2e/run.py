"""bench_e2e: what a client of the DIALITE service observes, and where it goes.

Two ways to call it (both from the repository root)::

    # the yardstick: all four workloads, timed window then traced run
    PYTHONPATH=src python benchmarks/e2e/run.py --seed 11 [--out FILE] [--repeat N] [--smoke]

    # one (workload, mode) cell, the form BENCHMARK.json's driver uses
    python benchmarks/e2e/run.py --workload discover_cold --seed 3 --seconds 24 --trace 0

Every metric is printed by name and unit; the last line of standard output
is one JSON document.  In the one-cell form it is exactly
``{"correct", "attempted", "failed", "metrics"}`` with the ``end_to_end``
metrics of BENCHMARK.json (``--trace 0``) or its ``per_layer`` metrics
(``--trace 1``: what the two clients saw in the timed window, measured with
every tracing flag off, then the traced run).  A wrong answer is a failed
operation and makes the exit code 1.

BENCHMARK.json is the one list of metric names, units and bounds: this
program refuses to report a name that is not in it, or to omit one that is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# SANTOS sums floats in set-iteration order, so its scores -- and with them
# the ranking among near-ties -- depend on the process's string-hash seed.
# The server is a separate process; its answers can only be compared with an
# oracle here if both run under one seed.  The server inherits this
# environment (harness.Server), so pin it before anything is imported.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

import harness as hx  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from repro.store import journal  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
SMOKE_SECONDS = 1.0

def run_workload(
    name: str, seed: int, seconds: float, scale: wl.Scale, traced: bool,
    setups: int, out_dir: Path,
) -> dict:
    """One workload on its own freshly built store: set-up (*setups* times,
    the last one kept), warm-up, timed window, answer check, and -- if
    *traced* -- the traced run.  Every number is reported as read."""
    workload = wl.WORKLOADS[name]
    inputs = hx.Inputs(seed, scale)
    warm = hx.warm_requests(workload, scale)
    with hx.Workspace(out_dir) as workspace:
        setup_s = []
        for attempt in range(setups):
            if attempt:
                server.stop()
                shutil.rmtree(built.path)
            start = time.perf_counter()
            tables = wl.lake_tables(workload, seed, scale)
            built = hx.build_store(
                workload, tables, workspace.path / f"store{attempt}", scale.shards
            )
            server = workspace.serve(built.path)
            hx.warm_reply(server, warm[0], inputs, built.version)
            setup_s.append(time.perf_counter() - start)
        store_files = hx.tree_bytes(built.path)
        for request in warm[1:]:
            hx.warm_reply(server, request, inputs, built.version)

        client = server.client()
        stats_before = client.stats()
        window = hx.run_window(server, workload, inputs, seconds)
        stats_after = client.stats()
        samples = window.samples + hx.verify(
            server, built.path, workload, window, inputs, built.version
        )

        # Where hot and never-seen reads mix, the median is that of the
        # never-seen ones (the median of a hit/miss mixture sits between two
        # modes and moves with the hit ratio, not with how fast anything
        # is); the tail is that of all reads, because what writes do to
        # readers hits the hot ones too: the first after each flush misses.
        reads = [s for s in window.samples if s.ok and s.request is not None]
        primary = [s for s in reads if workload.reads != "mixed" or s.request.stream != "hot"]
        ingests = [s for s in window.samples if s.op == "ingest" and s.visible_s is not None]
        completed = len(window.completed())
        if not primary or not completed or (workload.writer and not ingests):
            raise RuntimeError(f"{name}: no correct {'read' if not primary else 'write'} completed")
        latency_ms = [s.latency_s * 1e3 for s in primary]
        tail_ms = [s.latency_s * 1e3 for s in reads]
        result = {
            "end_to_end": {
                # The mean, not the median: the host runs at two speeds, so
                # the median of three set-ups is one speed or the other,
                # and so is the median of ten such runs.
                "setup_s": statistics.fmean(setup_s),
                "peak_rss_mb": window.peak_rss_mib,
                "store_mb": sum(store_files.values()) / 1e6,
            },
            "ops": op_counts(samples),
            "samples": {"latency": len(primary), "tail": len(reads), "ingest": len(ingests),
                        "setup": len(setup_s)},
            "server_processes": window.processes,
            "failures": sorted({s.error for s in samples if not s.ok})[:5],
        }
        if traced:
            per_layer, result["trace_sample"] = layers.traced_run(
                server, built, store_files, workload, inputs,
                out_dir / f"spans-{name}-seed{seed}.jsonl",
            )
            moved = {k: stats_after[k] - stats_before[k] for k in
                     ("requests", "hits", "misses", "batched_requests", "reloads",
                      "rejected_overload", "rejected_deadline")}
            p50 = hx.percentile(latency_ms, 0.50)
            per_layer.update({
                # What the two clients saw in the timed window.  No time
                # repeats within BENCHMARK.json's largest bound on this host
                # (README.md, "Why only three metrics are bounded"), so they
                # are reported here, without one.
                "client.throughput_rps": window.throughput_rps(),
                "client.latency_p50_ms": p50,
                "client.latency_p95_ms": hx.percentile(tail_ms, 0.95),
                "client.latency_p99_ms": hx.percentile(tail_ms, 0.99),
                # Write cycles run only beside ingest_mix's reader: a layer
                # a workload never enters reports 0.
                "client.ingest_p50_ms":
                    hx.percentile([s.latency_s * 1e3 for s in ingests], 0.50) if ingests else 0.0,
                "client.visible_p50_ms":
                    hx.percentile([s.visible_s * 1e3 for s in ingests], 0.50) if ingests else 0.0,
                "service.cpu_ms_per_op": window.cpu_s * 1e3 / completed,
                "service.contention_ms": p50 - per_layer["client.seq_p50_ms"],
                "service.cache_hit_ratio": moved["hits"] / max(1, moved["hits"] + moved["misses"]),
                "service.batched_share": moved["batched_requests"] / max(1, moved["requests"]),
                "service.reloads": moved["reloads"],
                "service.rejected": moved["rejected_overload"] + moved["rejected_deadline"],
            })
            result["per_layer"] = per_layer
    for group, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        check_names(result.get(group), names, f"{name}.{group}")
    return result


def op_counts(samples: list[hx.Sample]) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for sample in samples:
        entry = counts.setdefault(sample.op, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        entry["failed"] += not sample.ok
    return counts


def check_names(metrics: dict | None, names: list[str], where: str) -> None:
    if metrics is None:
        return
    if set(metrics) != set(names):
        raise RuntimeError(
            f"{where}: emitted and BENCHMARK.json disagree: "
            f"unnamed {sorted(set(metrics) - set(names))}, missing {sorted(set(names) - set(metrics))}"
        )
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"{where}: not finite: {bad}")


def totals(result: dict) -> tuple[int, int]:
    attempted = sum(c["attempted"] for c in result["ops"].values())
    failed = sum(c["failed"] for c in result["ops"].values())
    return attempted, failed


def print_result(name: str, result: dict) -> None:
    attempted, failed = totals(result)
    print(f"== {name}: {attempted} ops attempted, {failed} failed "
          f"(error_rate {failed / attempted:.6f})")
    for op, count in sorted(result["ops"].items()):
        print(f"   ops.{op}: attempted {count['attempted']}, failed {count['failed']}")
    for reason in result["failures"]:
        print(f"   failure: {reason}")
    counted = {"setup_s": "setup", "client.latency_p50_ms": "latency", "client.latency_p95_ms": "tail",
               "client.latency_p99_ms": "tail", "client.ingest_p50_ms": "ingest",
               "client.visible_p50_ms": "ingest"}
    for group in ("end_to_end", "per_layer"):
        for metric, value in result.get(group, {}).items():
            count = f"  (n={result['samples'][counted[metric]]})" if metric in counted else ""
            print(f"   {metric} = {value:.6g} {UNITS[metric]}{count}")


def host_record(seed: int, scale_name: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit, "seed": seed, "scale": scale_name,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "fsync": journal.fsync_enabled(), "REPRO_FSYNC": os.environ.get("REPRO_FSYNC"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


WINDOW_CLOCKS = ["client.throughput_rps", "client.latency_p50_ms", "client.latency_p95_ms",
                 "service.cpu_ms_per_op"]


def spread_table(runs: list[dict]) -> None:
    """Median, quartiles and relative spread over repeated runs of every
    end-to-end metric and of the timed window's four clocks: how
    BENCHMARK.json's bounds were calibrated, and why the clocks have none."""
    print(f"== spread over {len(runs)} runs: median [q1, q3] spread=(q3-q1)/median")
    for name in runs[0]:
        for group, metrics in (("end_to_end", END_TO_END), ("per_layer", WINDOW_CLOCKS)):
            for metric in metrics:
                values = [run[name][group][metric] for run in runs if group in run[name]]
                if len(values) < 2:
                    continue
                q1, median, q3 = statistics.quantiles(values, n=4)
                print(f"   {name}.{metric}: {median:.6g} [{q1:.6g}, {q3:.6g}] {UNITS[metric]} "
                      f"spread={(q3 - q1) / median:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed window; BENCHMARK.json's driver passes its run_seconds "
                        f"({SPEC['run_seconds']}), which is also the default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only; "
                        "omitted: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tier-1 scale: tiny lakes, 1 s windows, one set-up")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N times on seeds seed..seed+N-1 and print the spread")
    parser.add_argument("--out", default=None,
                        help="also write the JSON document here (default, when not a single "
                        "cell: benchmarks/e2e/out/bench_e2e-seed<seed>.json)")
    args = parser.parse_args(argv)

    scale = wl.SMOKE if args.smoke else wl.FULL
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else SPEC["run_seconds"])
    out_dir = HERE / "out"
    cell = args.workload is not None and args.trace is not None
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    traced = args.trace != 0

    # Per-layer runs report no set-up time, so one set-up is enough there.
    setups = 1 if args.trace == 1 else scale.setups

    runs, ok = [], True
    for repeat in range(args.repeat):
        run = {}
        for name in names:
            result = run_workload(name, args.seed + repeat, seconds, scale, traced, setups, out_dir)
            print_result(name, result)
            ok = ok and totals(result)[1] == 0
            run[name] = result
        runs.append(run)
    if args.repeat > 1:
        spread_table(runs)

    if cell:
        result = runs[-1][args.workload]
        attempted, failed = totals(result)
        group = "per_layer" if args.trace else "end_to_end"
        document = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in result[group].items()},
        }
    else:
        document = {"meta": host_record(args.seed, "smoke" if args.smoke else "full"),
                    "seconds": seconds, "runs": runs}
    text = json.dumps(document)
    out = args.out or (None if cell else out_dir / f"bench_e2e-seed{args.seed}.json")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
