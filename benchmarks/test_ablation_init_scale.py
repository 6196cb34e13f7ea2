"""Ablation — lookup-table initialization scale.

A design choice DESIGN.md calls out: the tanh tower saturates when the
lookup tables are initialized too large, because the pooled conv
activations then land deep in the flat region of the hidden layer and
the model never escapes the collapsed s≈0 solution.  This bench
documents the cliff empirically.
"""

from .conftest import write_result


def test_embedding_init_scale(benchmark, raw_auc, bench_scale):
    def run_all():
        return {
            scale: raw_auc(embedding_init_scale=scale) for scale in (0.1, 1.0)
        }

    aucs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report = "ABLATION — embedding init scale (tanh saturation cliff)\n" + "\n".join(
        f"  init scale {scale:<4} → raw-similarity eval AUC = {auc:.4f}"
        for scale, auc in aucs.items()
    )
    write_result("ablation_init_scale", report)
    print("\n" + report)

    if bench_scale == "ci":
        return
    assert aucs[0.1] >= aucs[1.0] - 0.02
