"""tools/record_e2e.py: BENCH_E2E.json is appended to, never rewritten."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "record_e2e", ROOT / "tools" / "record_e2e.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def results(commit: str, rss: list[float]) -> dict:
    """A ``run.py --out`` document: one run per entry of *rss*."""
    def cell(value: float) -> dict:
        return {"end_to_end": {"setup_s": 2.0, "peak_rss_mb": value, "store_mb": 1.9}}

    return {
        "meta": {
            "commit": commit, "seed": 1, "scale": "full", "nproc": 2,
            "python": "3.11.7", "numpy": "2.4.6",
        },
        "seconds": 24,
        "runs": [
            {w["name"]: cell(value) for w in SPEC["workloads"]} for value in rss
        ],
    }


def test_records_are_appended_and_earlier_bytes_never_move(tmp_path, capsys):
    tool = load_tool()
    history = tmp_path / "BENCH_E2E.json"
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(results("aaa", [90.0, 94.0, 92.0, 96.0])), "utf-8")
    change.write_text(json.dumps(results("bbb", [64.0, 66.0, 65.0])), "utf-8")

    argv = [str(parent), str(change), "--history", str(history)]
    assert tool.main([*argv, "--pr", "15"]) == 0
    first = history.read_bytes()
    assert tool.main([*argv, "--pr", "16"]) == 0
    assert history.read_bytes().startswith(first)

    records = [json.loads(line) for line in history.read_text("utf-8").splitlines()]
    assert [record["pr"] for record in records] == [15, 16]
    record = records[0]
    assert record["commit"] == "bbb" and record["parent_commit"] == "aaa"
    assert record["host"] == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    cell = record["workloads"]["integrate_mix"]["peak_rss_mb"]
    assert cell["parent"] == {"median": 93.0, "spread": cell["parent"]["spread"], "n": 4}
    assert 0 < cell["parent"]["spread"] < 0.1
    assert cell["change"]["median"] == 65.0 and cell["change"]["n"] == 3
    assert set(record["workloads"]["integrate_mix"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_nothing_is_written_when_the_files_share_no_cell(tmp_path):
    tool = load_tool()
    history = tmp_path / "BENCH_E2E.json"
    empty = results("aaa", [])
    for name in ("parent.json", "change.json"):
        (tmp_path / name).write_text(json.dumps(empty), "utf-8")
    code = tool.main([
        str(tmp_path / "parent.json"), str(tmp_path / "change.json"),
        "--pr", "15", "--history", str(history),
    ])
    assert code == 1 and not history.exists()
