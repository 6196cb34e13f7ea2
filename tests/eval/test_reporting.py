"""Text rendering of tables and P/R curve plots."""

import numpy as np
import pytest

from repro.eval.metrics import evaluate_scores, pr_curve
from repro.eval.protocol import ExperimentResult
from repro.eval.reporting import format_importances, format_table, render_pr_curves


@pytest.fixture()
def results(rng):
    out = {}
    for name, quality in (("Weak", 0.3), ("Strong", 2.0)):
        labels = rng.integers(2, size=300).astype(float)
        labels[:2] = [0.0, 1.0]
        scores = labels * quality + rng.random(300)
        out[name] = ExperimentResult(
            name=name,
            report=evaluate_scores(labels, scores),
            curve=pr_curve(labels, scores),
            scores=scores,
            labels=labels,
            feature_names=["f0", "f1", "f2"],
            feature_importances=np.array([0.5, 0.3, 0.2]),
        )
    return out


class TestFormatTable:
    def test_contains_all_settings_and_metrics(self, results):
        table = format_table(results, "TABLE X")
        assert "TABLE X" in table
        assert "Weak" in table and "Strong" in table
        assert "PR60" in table and "AUC" in table
        for result in results.values():
            assert f"{result.report.auc:6.3f}".strip() in table


class TestRenderPrCurves:
    def test_has_axes_and_legend(self, results):
        plot = render_pr_curves(results)
        assert "recall" in plot
        assert "precision" in plot
        assert "* Weak" in plot and "o Strong" in plot

    def test_dimensions(self, results):
        plot = render_pr_curves(results)
        grid_lines = [line for line in plot.splitlines() if "|" in line]
        assert len(grid_lines) == 18
        assert all(len(line.split("|", 1)[1]) == 64 for line in grid_lines)


class TestFormatImportances:
    def test_sorted_by_importance(self, results):
        rendered = format_importances(results["Weak"], top_k=2)
        assert rendered.index("f0") < rendered.index("f1")
        assert "f2" not in rendered

    def test_missing_importances(self, results):
        result = results["Weak"]
        result.feature_importances = None
        assert "no importances" in format_importances(result)
