"""Run reports: one markdown document summarizing a pipeline run.

The demo lets users "interact with the system after each step"; headless
runs want the same visibility in one artifact.  ``pipeline_report`` renders
a :class:`~repro.core.results.PipelineResult` -- discovery ranking,
alignment/integration shape, null accounting, per-analysis results -- as
markdown suitable for a PR description or an experiment log.
"""

from __future__ import annotations

from typing import Any

from ..integration.tuples import IntegratedTable
from ..table.table import Table
from .stats import fact_coverage, null_profile

__all__ = ["pipeline_report", "table_to_markdown"]


def table_to_markdown(table: Table, max_rows: int = 25) -> str:
    """Render a table as GitHub-flavored markdown."""
    def cell_text(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:g}"
        return str(value).replace("|", "\\|")

    lines = ["| " + " | ".join(table.columns) + " |"]
    lines.append("|" + "---|" * table.num_columns)
    for row in table.rows[:max_rows]:
        lines.append("| " + " | ".join(cell_text(v) for v in row) + " |")
    if table.num_rows > max_rows:
        lines.append(f"\n*... {table.num_rows - max_rows} more rows*")
    return "\n".join(lines)


def _integration_section(integrated: IntegratedTable) -> list[str]:
    profile = null_profile(integrated)
    coverage = fact_coverage(integrated.provenance)
    lines = [
        "## Integration",
        "",
        f"- algorithm: `{integrated.algorithm or 'unknown'}`",
        f"- output: **{integrated.num_rows} facts × {integrated.num_columns} attributes**",
        f"- merged facts (≥2 sources): {coverage['merged_tuples']} "
        f"(mean {coverage['mean_sources']:.2f} sources/fact)",
        f"- nulls: {profile.missing} missing (±), {profile.produced} produced (⊥); "
        f"completeness {profile.completeness:.2%}",
        "",
        table_to_markdown(integrated.to_display_table(), max_rows=15),
    ]
    return lines


def _analysis_section(analyses: dict[str, Any]) -> list[str]:
    if not analyses:
        return []
    lines = ["## Analyses", ""]
    for app_name, result in analyses.items():
        lines.append(f"### {app_name}")
        lines.append("")
        if isinstance(result, Table):
            lines.append(table_to_markdown(result))
        elif isinstance(result, dict):
            for key, value in result.items():
                if isinstance(value, Table):
                    lines.append(f"**{key}**:")
                    lines.append("")
                    lines.append(table_to_markdown(value))
                else:
                    lines.append(f"- {key}: {value}")
        elif hasattr(result, "entities") and isinstance(result.entities, Table):
            lines.append(f"- entities: {result.num_entities}")
            lines.append("")
            lines.append(table_to_markdown(result.entities))
        else:
            lines.append(f"```\n{result}\n```")
        lines.append("")
    return lines


def pipeline_report(result: "Any", title: str = "DIALITE run report") -> str:
    """Markdown report for a :class:`~repro.core.results.PipelineResult`."""
    discovery = result.discovery
    lines = [f"# {title}", ""]

    lines.append("## Discovery")
    lines.append("")
    lines.append(
        f"- query: `{discovery.query.name}` "
        f"({discovery.query.num_rows}×{discovery.query.num_columns})"
    )
    names = result.integration_set_names
    lines.append(
        f"- integration set ({len(names)} tables): "
        + ", ".join(f"`{name}`" for name in names)
    )
    lines.append("")
    lines.append(table_to_markdown(discovery.summary()))
    lines.append("")

    lines.extend(_integration_section(result.integrated))
    lines.append("")
    lines.extend(_analysis_section(result.analyses))
    return "\n".join(lines).rstrip() + "\n"
