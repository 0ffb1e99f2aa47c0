"""Smoke tests: every shipped example must run end to end.

Examples are the first thing a new user executes; a release where they
crash is broken regardless of test status.  Each script runs in-process
(runpy) with stdout captured; assertions check the banner facts each
example prints.
"""

from __future__ import annotations

import runpy
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamplesRun:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "Lowest vaccination rate:  Boston" in out
        assert "Highest vaccination rate: Toronto" in out

    def test_covid_analysis_reproduces_paper_numbers(self, capsys):
        out = run_example("covid_analysis.py", capsys)
        assert "corr(vaccination, death rate) = 0.16" in out
        assert "corr(cases, vaccination)      = 0.90" in out
        assert "f7" in out  # all seven Figure 3 facts printed

    def test_vaccine_er_comparison(self, capsys):
        out = run_example("vaccine_er_comparison.py", capsys)
        assert "ER over outer join -> 4 entities" in out
        assert "ER over FD -> 2 entities" in out

    def test_extensibility(self, capsys):
        out = run_example("extensibility.py", capsys)
        assert "inner_join_search" in out
        assert "FD merge rate" in out

    def test_datalake_discovery(self, capsys):
        out = run_example("datalake_discovery.py", capsys)
        assert "Offline index build times" in out
        assert "merged union" in out

    def test_incremental_integration(self, capsys):
        out = run_example("incremental_integration.py", capsys)
        assert "Incremental result equals batch FD: True" in out

    def test_serve_demo(self, capsys):
        out = run_example("serve_demo.py", capsys)
        assert "first cached=False, second cached=True" in out
        assert "re-query at v2 (cached=False)" in out
        assert "1 reloads" in out
        assert "server shut down cleanly" in out

    def test_every_example_has_a_smoke_test(self):
        scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        covered = {
            "quickstart.py",
            "covid_analysis.py",
            "vaccine_er_comparison.py",
            "extensibility.py",
            "datalake_discovery.py",
            "incremental_integration.py",
            "serve_demo.py",
        }
        assert scripts == covered, "new example needs a smoke test here"
