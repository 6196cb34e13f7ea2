"""Evaluation: metrics, the two-stage experiment protocol, reporting."""

from repro.eval.metrics import (
    ClassifierReport,
    PRCurve,
    evaluate_scores,
    pr_curve,
    roc_auc,
    roc_curve,
)
from repro.eval.protocol import (
    SCALES,
    ExperimentResult,
    ExperimentScale,
    TwoStageExperiment,
)
from repro.eval.reporting import format_importances, format_table, render_pr_curves

__all__ = [
    "SCALES",
    "ClassifierReport",
    "ExperimentResult",
    "ExperimentScale",
    "PRCurve",
    "TwoStageExperiment",
    "evaluate_scores",
    "format_importances",
    "format_table",
    "pr_curve",
    "render_pr_curves",
    "roc_auc",
    "roc_curve",
]
