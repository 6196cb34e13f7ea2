"""Self-test of the benchmark harness (not part of tier-1).

    python -m pytest bench -q

Runs every workload once at ``--quick`` size, untraced and traced, and
checks the harness against its own declaration in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import plans
from bench.hostspeed import NOMINAL_S, RANKING, HostSpeed
from bench.run import compare, declared, workload_names
from bench.stats import at_nominal_speed, rate_at_nominal_speed

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


# -- the declaration ---------------------------------------------------


def test_declaration_is_well_formed():
    benchmark = declared()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark["paths"] == ["bench"]
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in benchmark[kind]]
    names += [w["name"] for w in benchmark["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])


def test_bench_stays_off_the_code_it_must_outlive():
    forbidden = re.compile(r"repro\.(loadgen|cli|serving\.client)|repro\.serving import")
    for path in BENCH_DIR.rglob("*.py"):
        if path.name != "test_selftest.py":
            assert not forbidden.search(path.read_text()), path


# -- plans are a pure function of the seed -----------------------------


def _all_plans(seed: int) -> bytes:
    return b"\n".join(
        plans.plan_bytes(plan)
        for plan in (
            plans.http_open_plan(seed, 800, 2000, 1008.0, 8.0),
            plans.http_closed_plan(seed, 800, 2000, 1008.0, lane=0, length=256),
            plans.http_closed_plan(seed, 800, 2000, 1008.0, lane=1, length=256),
            plans.rank_plan(seed, 800, 1008.0, length=256),
            plans.churn_plan(seed, 800, 600, 5000, cycles=50),
            plans.train_plan(seed, 23000, 2048),
        )
    )


def test_same_seed_same_plan_different_seed_different_plan():
    assert _all_plans(7) == _all_plans(7)
    assert _all_plans(7) != _all_plans(8)
    # The two closed-loop lanes of one seed are different streams.
    assert plans.http_closed_plan(7, 800, 2000, 1008.0, 0, 64) != plans.http_closed_plan(
        7, 800, 2000, 1008.0, 1, 64
    )


def test_http_mix_and_rank_rotation():
    requests = plans.http_closed_plan(3, 800, 2000, 1008.0, lane=0, length=2000)
    share = {k: sum(r["kind"] == k for r in requests) / 2000 for k in ("full", "subpool", "score")}
    assert abs(share["full"] - 0.7) < 0.05
    assert abs(share["subpool"] - 0.2) < 0.05
    assert abs(share["score"] - 0.1) < 0.05
    rotation = [call["kind"] for call in plans.rank_plan(3, 800, 1008.0, length=16)]
    assert rotation[:8] == ["single", "at_time"] * 3 + ["single", "batch"]
    assert rotation[8:] == rotation[:8]


# -- the host-speed reference ------------------------------------------


def test_host_speed_windows_and_correction():
    host = HostSpeed()
    host.sample()
    host.sample_if_due()  # the first sample is younger than a quarter second
    assert len(host.samples) == 1
    assert set(host.samples[0][1]) == set(NOMINAL_S)
    assert all(ratio > 0 for ratio in host.samples[0][1].values())
    # Three windows: the host ran at nominal speed in the first and 1.5
    # times slower in the others (twice as slow by the gather kernel).
    slow = {"loop": 1.0, "gather": 2.0, "tower": 1.5}
    host.samples = [(0.5, dict.fromkeys(NOMINAL_S, 1.0)), (1.2, slow), (2.8, slow)]
    assert host.per_window(RANKING, (0.0, 3.0), 3) == [1.0, 1.5, 1.5]
    assert host.per_window(("gather",), (0.0, 3.0), 3) == [1.0, 2.0, 2.0]
    # A span without a sample reads the run's median.
    assert host.slowdown(RANKING, (1.5, 2.0)) == host.slowdown(RANKING) == 1.5
    # The same program on that host: 10 ms, then 15 ms; 100/s, then 66.7/s.
    assert at_nominal_speed([[10.0, 10.0], [15.0, 15.0], []], [1.0, 1.5, 1.5], 50) == 10.0
    rate = rate_at_nominal_speed([100.0, 100.0, 0.0], [1.0, 1.5, 0.0], [1.0, 1.5, 1.5])
    assert rate == pytest.approx(100.0)


# -- one quick run of everything ---------------------------------------


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-quick")
    done = subprocess.run(
        [*RUN, "--quick", "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads((out / "report.json").read_text())


def test_every_declared_metric_is_emitted_and_nothing_else(quick):
    _, report = quick
    benchmark = declared()
    seen = {(run["workload"], run["trace"]) for run in report["runs"]}
    assert seen == {(name, trace) for name in workload_names() for trace in (0, 1)}
    for run in report["runs"]:
        wanted = benchmark["per_layer" if run["trace"] else "end_to_end"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run["workload"]
        assert {
            name: metric["unit"] for name, metric in run["metrics"].items()
        } == {metric["name"]: metric["unit"] for metric in wanted}, run["workload"]
        if not run["trace"]:
            assert all(metric["value"] > 0 for metric in run["metrics"].values()), run


def test_each_layer_is_billed_on_the_workload_that_enters_it(quick):
    _, report = quick
    traced = {run["workload"]: run["metrics"] for run in report["runs"] if run["trace"]}
    entered = {
        "http_recommend": [
            "client.open_latency_p95_ms", "client.send_lag_p99_ms", "client.score_p50_ms",
            "serving.http.read_request_us", "serving.http.json_decode_us",
            "serving.http.render_response_us", "serving.schemas.from_payload_us",
            "serving.server.dispatch_ms", "serving.server.self_ms", "serving.server.wire_gap_ms",
            "serving.batcher.submit_ms", "serving.batcher.wait_ms",
            "serving.batcher.mean_batch_size", "serving.batcher.flushes",
            "core.service.score_us", "store.cache.hit_rate",
        ],
        "rank_large_pool": [
            "core.service.rank_events_ms", "core.service.rank_events_batch_ms",
            "core.service.rank_self_ms", "core.service.user_vector_us",
            "store.index.score_ids_ms", "store.index.score_ids_batch_ms",
            "store.index.scores_ms", "store.index.top_k_order_us", "store.index.rows",
            "store.index.matrix_mb", "store.cache.get_us", "store.cache.hit_rate",
        ],
        "train_epochs": [
            "core.model.user_batches_ms", "core.model.event_batches_ms",
            "core.model.pad_useful_share", "core.model.train_step_ms",
            "core.tower.user_forward_ms", "core.tower.event_forward_ms",
            "core.tower.user_backward_ms", "core.tower.event_backward_ms",
            "nn.cosine.forward_backward_us", "nn.losses.contrastive_us", "nn.optim.step_ms",
            "nn.optim.zero_grad_us", "core.trainer.fit_s", "core.trainer.evaluate_loss_s",
            "core.trainer.steps", "core.trainer.self_ms_per_step",
        ],
        "event_churn": [
            "core.service.refresh_events_ms", "core.service.remove_event_us",
            "store.index.upsert_us", "store.index.remove_us", "store.index.compactions",
            "text.documents.encode_event_us", "core.model.encode_events_ms_per_event",
            "core.tower.event_forward_ms",
        ],
    }
    for workload, names in entered.items():
        for name in names:
            assert traced[workload][name]["value"] > 0, (workload, name)
    # ... and a layer a workload bypasses reads zero there.
    assert traced["rank_large_pool"]["serving.server.dispatch_ms"]["value"] == 0
    assert traced["train_epochs"]["core.service.rank_events_ms"]["value"] == 0
    assert traced["http_recommend"]["core.model.train_step_ms"]["value"] == 0
    assert all("bench.trace_overhead_pct" in metrics for metrics in traced.values())


def test_spans_carry_name_start_end_and_parent(quick):
    out, _ = quick
    for workload in workload_names():
        lines = (out / f"spans-{workload}.jsonl").read_text().splitlines()
        spans = [json.loads(line) for line in lines]
        assert spans, workload
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            assert span["name"] and span["end"] >= span["start"]
            parent = by_id.get(span["parent_id"])
            if parent is not None:
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert any(span["parent_id"] is not None for span in spans), workload
        assert any(span["request"] is not None for span in spans), workload


# -- the command's contract --------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank_large_pool",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- compare -----------------------------------------------------------


def _report(path: Path, latency: list[float], throughput: list[float]) -> Path:
    runs = [
        {
            "workload": "rank_large_pool", "seed": seed, "trace": 0, "correct": True,
            "metrics": {
                "latency_p50_ms": {"value": a, "unit": "ms"},
                "throughput_rps": {"value": b, "unit": "1/s"},
            },
        }
        for seed, (a, b) in enumerate(zip(latency, throughput))
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_labels(tmp_path, capsys):
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    base = _report(tmp_path / "a.json", steady, [100.0, 101.0, 99.0, 100.5, 99.5])
    same = _report(tmp_path / "b.json", steady, [100.2, 100.9, 99.1, 100.4, 99.6])
    assert compare(base, same) == 0
    assert "regressed" not in capsys.readouterr().out.replace("0 regressed", "")

    slower = _report(
        tmp_path / "c.json", [value * 1.3 for value in steady], [70.0, 71.0, 69.0, 70.5, 69.5]
    )
    assert compare(base, slower) == 1
    out = capsys.readouterr().out
    assert out.count("regressed ") == 2

    noisy = _report(tmp_path / "d.json", [8.0, 12.0, 9.0, 11.5, 10.0], [80, 120, 90, 115, 100])
    assert compare(base, noisy) == 1
    assert "unresolved" in capsys.readouterr().out
