"""Ablation — convolution window sizes.

Paper, Section 3.1.1: "Convolution window size 1, 3, 5 are used for
the text extraction modules to cover semantic segments of different
lengths."

Reproduction: compare a unigram-only variant against the full
{1, 3, 5} set; the multi-window model should match or beat it.
"""

from .conftest import write_result


def test_window_size_sets(benchmark, raw_auc, bench_scale):
    def run_all():
        return {
            windows: raw_auc(text_windows=windows) for windows in ((1,), (1, 3, 5))
        }

    aucs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report = "ABLATION — text convolution window sets\n" + "\n".join(
        f"  windows {str(windows):<10} → raw-similarity eval AUC = {auc:.4f}"
        for windows, auc in aucs.items()
    )
    write_result("ablation_windows", report)
    print("\n" + report)

    if bench_scale == "ci":
        return
    assert aucs[(1, 3, 5)] >= aucs[(1,)] - 0.03
