"""Ablation — sensitivity to the contrastive margin θ_r.

Paper, Section 3.2.1: "We found that the training is not very
sensitive to the choice of θ_r and we use zero for all experiments."

Reproduction: train with θ_r ∈ {0, 0.2} and check the evaluation AUC
moves by only a small amount.
"""

from .conftest import write_result


def test_margin_insensitivity(benchmark, raw_auc, bench_scale):
    def run_both():
        return {margin: raw_auc(margin=margin) for margin in (0.0, 0.2)}

    aucs = benchmark.pedantic(run_both, rounds=1, iterations=1)
    report = "ABLATION — contrastive margin θ_r\n" + "\n".join(
        f"  θ_r = {margin:<4} → raw-similarity eval AUC = {auc:.4f}"
        for margin, auc in aucs.items()
    )
    write_result("ablation_margin", report)
    print("\n" + report)

    if bench_scale == "ci":
        return
    assert abs(aucs[0.0] - aucs[0.2]) < 0.06, "θ_r should be a minor knob"
