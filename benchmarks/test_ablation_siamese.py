"""Ablation — Siamese event-tower initialization.

Paper, Section 3.2.1: with limited user-event observations, pre-
training the event sub-net on (title, body) pairings "helps initialize
[the] event lookup table without any user feedback".

Reproduction: identical joint training with and without the warm
start; at our (deliberately limited) data scale the initialized model
should match or beat the random-init one.
"""

from .conftest import write_result


def test_siamese_initialization(benchmark, raw_auc, bench_scale):
    def run_both():
        return {
            use_siamese: raw_auc(use_siamese_init=use_siamese)
            for use_siamese in (False, True)
        }

    aucs = benchmark.pedantic(run_both, rounds=1, iterations=1)
    report = "ABLATION — Siamese event-tower initialization\n" + "\n".join(
        f"  siamese_init={str(flag):<5} → raw-similarity eval AUC = {auc:.4f}"
        for flag, auc in aucs.items()
    )
    write_result("ablation_siamese", report)
    print("\n" + report)

    if bench_scale == "ci":
        return
    assert aucs[True] >= aucs[False] - 0.04
