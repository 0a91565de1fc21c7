"""Plain-text report formatting for tables and figure data.

The benchmark harness prints the same rows/series the paper reports; these
helpers render lists of dictionaries as aligned text tables and learning
curves as simple series dumps, so the benches need no plotting dependencies.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.evaluation.curves import LearningCurve


def format_table(rows: Sequence[Mapping[str, object]], title: str | None = None,
                 float_format: str = "{:.2f}") -> str:
    """Render ``rows`` (dicts sharing keys) as an aligned text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    columns = list(rows[0].keys())

    def cell(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in rendered))
              for i, column in enumerate(columns)]
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
                     for line in rendered)
    parts = [header, separator, body]
    if title:
        parts.insert(0, title)
    return "\n".join(parts)


def format_learning_curves(curves: Mapping[str, LearningCurve], title: str | None = None,
                           percentage: bool = True) -> str:
    """Render learning curves as one row per method (Figure 5-style series)."""
    lines: list[str] = []
    if title:
        lines.append(title)
    for method, curve in curves.items():
        scale = 100.0 if percentage else 1.0
        points = ", ".join(
            f"{count}:{f1 * scale:.1f}"
            for count, f1 in zip(curve.labeled_counts, curve.f1_scores)
        )
        lines.append(f"{method:>14}  {points}")
    return "\n".join(lines)

