"""Text rendering of experiment results: paper-style tables and
terminal P/R curve plots for Figures 5 and 6."""

from __future__ import annotations

import numpy as np

from repro.eval.metrics import PRCurve
from repro.eval.protocol import ExperimentResult

__all__ = ["format_table", "render_pr_curves", "format_importances"]


def format_table(
    results: dict[str, ExperimentResult], title: str
) -> str:
    """Render results in the paper's Table-1/2 layout."""
    lines = [
        title,
        f"{'Setting':<28s} {'PR60':>6s} {'PR80':>6s} {'AUC':>6s}",
        "-" * 50,
    ]
    for name, result in results.items():
        lines.append(result.report.as_row(name))
    return "\n".join(lines)


def _sample_curve(curve: PRCurve, grid: np.ndarray) -> np.ndarray:
    """Best precision at each recall grid point (monotone envelope)."""
    precision = np.zeros_like(grid)
    for index, recall in enumerate(grid):
        feasible = curve.recall >= recall
        precision[index] = curve.precision[feasible].max() if feasible.any() else 0.0
    return precision


def render_pr_curves(results: dict[str, ExperimentResult]) -> str:
    """ASCII rendering of several P/R curves on shared axes.

    Recall runs left→right on the x-axis, precision bottom→top on the
    y-axis; each configuration gets a distinct glyph.
    """
    width, height = 64, 18
    glyphs = "*o+x#@%&"
    grid = np.linspace(0.05, 1.0, width)
    canvas = [[" "] * width for _ in range(height)]
    legend = []
    max_precision = 1e-9
    sampled = {}
    for index, (name, result) in enumerate(results.items()):
        values = _sample_curve(result.curve, grid)
        sampled[name] = values
        max_precision = max(max_precision, float(values.max()))
        legend.append(f"  {glyphs[index % len(glyphs)]} {name}")
    for index, (name, values) in enumerate(sampled.items()):
        glyph = glyphs[index % len(glyphs)]
        for column, precision in enumerate(values):
            if precision <= 0:
                continue
            row = height - 1 - int(precision / max_precision * (height - 1))
            canvas[row][column] = glyph
    lines = [f"precision (max={max_precision:.3f})"]
    for row_index, row in enumerate(canvas):
        level = max_precision * (height - 1 - row_index) / (height - 1)
        lines.append(f"{level:5.2f} |" + "".join(row))
    lines.append("      +" + "-" * width)
    lines.append("       recall 0.05" + " " * (width - 18) + "1.0")
    lines.extend(legend)
    return "\n".join(lines)


def format_importances(
    result: ExperimentResult, top_k: int = 12
) -> str:
    """Top-k GBDT feature importances for one configuration."""
    if result.feature_importances is None:
        return f"{result.name}: no importances recorded"
    order = np.argsort(-result.feature_importances)[:top_k]
    lines = [f"Top features — {result.name}"]
    for index in order:
        lines.append(
            f"  {result.feature_names[index]:<28s} "
            f"{result.feature_importances[index]:.4f}"
        )
    return "\n".join(lines)
