"""Tier-1 smoke test of bench_e2e: the whole harness at toy scale.

Runs ``run.py --smoke`` as a user would (a subprocess from the repository
root) and checks the contract the real benchmark relies on, not the numbers:
all four workloads go through a real ``repro serve`` process tree over TCP,
every metric BENCHMARK.json names comes out as a finite number and nothing
else does, no answer is wrong, and no server survives the run.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def serving_processes() -> list[str]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                argv = Path(f"/proc/{entry}/cmdline").read_bytes().split(b"\0")
            except (FileNotFoundError, ProcessLookupError):
                continue
            if b"repro" in argv and b"serve" in argv and str(ROOT).encode() in b" ".join(argv):
                found.append(entry)
    return found


def test_smoke_run(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--smoke", "--seed", "11", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(done.stdout.splitlines()[-1]) == document

    expected = {
        "end_to_end": {m["name"] for m in SPEC["end_to_end"]},
        "per_layer": {m["name"] for m in SPEC["per_layer"]},
    }
    for name in expected["end_to_end"] | expected["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    (run,) = document["runs"]
    assert list(run) == [w["name"] for w in SPEC["workloads"]]
    for workload, result in run.items():
        for group, names in expected.items():
            assert set(result[group]) == names, (workload, group)
            for metric, value in result[group].items():
                assert math.isfinite(value), (workload, metric, value)
        for metric in expected["end_to_end"]:  # the contract: never 0
            assert result["end_to_end"][metric] > 0, (workload, metric)
        failed = {op: c["failed"] for op, c in result["ops"].items()}
        assert not any(failed.values()), (workload, failed, result["failures"])
        # Over TCP, and through the process executor: the sharded lake's
        # server is one process per shard plus itself.
        assert result["per_layer"]["protocol.ping_rtt_ms"] > 0, workload
        assert result["server_processes"] == (1 if workload == "integrate_mix" else 5), workload
    assert run["discover_hot"]["per_layer"]["service.cache_hit_ratio"] >= 0.99
    assert run["discover_cold"]["per_layer"]["service.cache_hit_ratio"] == 0
    assert run["ingest_mix"]["ops"]["ingest"]["attempted"] >= 1
    assert run["ingest_mix"]["per_layer"]["service.reloads"] >= 1
    assert run["ingest_mix"]["per_layer"]["client.visible_p50_ms"] > 0
    assert document["meta"]["scale"] == "smoke"
    assert serving_processes() == []
