"""Command-line interface."""

import argparse
import functools
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.main import build_parser as build_analysis_parser
from repro.cli import build_parser, main
from repro.core.persistence import load_model_bundle
from repro.core.service import RepresentationService
from repro.datagen.dataset import EventRecDataset
from tests.reference import rank_events_loop

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((ROOT / ".github" / "workflows").glob("*.yml")),
]
PROGRAMS = {
    "repro-events": build_parser,
    "python -m repro.cli": build_parser,
    "python -m repro.analysis": build_analysis_parser,
}
_COMMAND = re.compile(
    r"^(?:run: )?(?:[A-Z_]+=\S+ )*(" + "|".join(map(re.escape, PROGRAMS)) + r")(?= |$)(.*)"
)


@functools.cache
def documented_commands():
    """``(program, argv)`` for every command line the documents show: a
    line that starts with one of PROGRAMS (after ``VAR=value`` words),
    continued while lines end in a backslash or the next starts with
    ``--`` (YAML folded scalars), cut at the first shell operator."""
    found = []
    for document in DOCUMENTS:
        lines = [line.strip() for line in document.read_text().splitlines()]
        for number, line in enumerate(lines):
            match = _COMMAND.match(line)
            if match is None:
                continue
            text = match.group(2)
            for following in lines[number + 1 :]:
                if not (text.endswith("\\") or following.startswith("--")):
                    break
                text = text.removesuffix("\\") + " " + following
            argv = []
            for word in shlex.split(text, comments=True):
                if word[0] in "|>&;":
                    break
                argv.append(word)
            found.append((match.group(1), argv))
    return found


def flags_of(parser, prefix=()):
    """Every ``(subcommand..., --flag)`` a parser accepts, bar ``--help``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from flags_of(child, (*prefix, name))
        else:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    yield (*prefix, option)


class TestDocumentedCommands:
    """README, the verify skill and CI show only commands that parse,
    and every flag has a documented use."""

    @pytest.mark.parametrize(
        "program, argv",
        documented_commands(),
        ids=lambda value: value if isinstance(value, str) else " ".join(value),
    )
    def test_command_parses(self, program, argv):
        PROGRAMS[program]().parse_args(argv)

    @pytest.mark.parametrize("build", [build_parser, build_analysis_parser])
    def test_every_flag_is_documented(self, build):
        shown = {
            (*argv[:1], word) if build is build_parser else (word,)
            for program, argv in documented_commands()
            if PROGRAMS[program] is build
            for word in argv
        }
        assert sorted(set(flags_of(build())) - shown) == []


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--scale", "small", "--seed", "3", "--out", "x.json.gz"]
        )
        assert args.command == "generate"
        assert args.seed == 3

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--scale", "huge", "--out", "x"])

    def test_experiment_table_choices(self):
        args = build_parser().parse_args(["experiment", "--tables", "2"])
        assert args.tables == [2]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--tables", "3"])


class TestEndToEnd:
    def test_generate_train_recommend_cycle(self, tmp_path, capsys):
        dataset_path = str(tmp_path / "world.json.gz")
        assert main(["generate", "--scale", "small", "--seed", "5",
                     "--out", dataset_path]) == 0
        bundle_path = str(tmp_path / "bundle")
        assert main(["train", "--dataset", dataset_path, "--bundle", bundle_path,
                     "--model-scale", "small", "--epochs", "1"]) == 0
        assert main(["recommend", "--dataset", dataset_path,
                     "--bundle", bundle_path, "--user-id", "0",
                     "--at-time", "900", "--top-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "top" in out and "user 0" in out

    def test_train_metrics_out_and_metrics_command(self, tmp_path, capsys):
        """--metrics-out writes epoch records + serving histograms, and
        ``metrics`` renders the snapshot as Prometheus text."""
        import json

        dataset_path = str(tmp_path / "world.json.gz")
        assert main(["generate", "--scale", "small", "--seed", "5",
                     "--out", dataset_path]) == 0
        bundle_path = str(tmp_path / "bundle")
        telemetry_path = str(tmp_path / "telemetry.jsonl")
        assert main(["train", "--dataset", dataset_path, "--bundle", bundle_path,
                     "--model-scale", "small", "--epochs", "2",
                     "--metrics-out", telemetry_path]) == 0

        records = [json.loads(line) for line in
                   open(telemetry_path, encoding="utf-8")]
        epochs = [r for r in records if r.get("record") == "epoch"]
        assert len(epochs) == 2
        for record in epochs:
            assert record["train_loss"] > 0.0
            assert record["learning_rate"] > 0.0
            assert record["seconds"] > 0.0
        snapshots = [r for r in records if r.get("record") == "snapshot"]
        assert len(snapshots) == 1
        metrics = {m["name"]: m for m in snapshots[0]["metrics"]
                   if not m["tags"]}
        encode = [m for m in snapshots[0]["metrics"]
                  if m["name"] == "repro_serving_encode_seconds"]
        assert {m["tags"]["kind"] for m in encode} == {"user", "event"}
        for histogram in encode:
            assert histogram["quantiles"]["p50"] is not None
            assert histogram["quantiles"]["p95"] is not None
            assert histogram["quantiles"]["p99"] is not None
        assert metrics["repro_cache_hit_rate"]["value"] > 0.0
        assert metrics["repro_train_epoch_loss"]["value"] > 0.0

        capsys.readouterr()  # drop train output
        assert main(["metrics", "--telemetry", telemetry_path]) == 0
        rendered = capsys.readouterr().out
        assert "# TYPE repro_train_epoch_loss gauge" in rendered
        assert "repro_serving_encode_seconds_bucket" in rendered
        assert "repro_cache_hit_rate" in rendered

    def test_train_encodes_each_entity_once(self, tmp_path, monkeypatch):
        """``train`` hands the trainer one encoded object per distinct
        user and event (the towers fold repeats by identity), and its
        loss curve is the one the pair-encoding helper gives."""
        from repro.core.config import JointModelConfig, TrainingConfig
        from repro.core.model import JointUserEventModel
        from repro.core.trainer import RepresentationTrainer
        from repro.text.documents import DocumentEncoder

        dataset_path = str(tmp_path / "world.json.gz")
        main(["generate", "--scale", "small", "--seed", "5", "--out", dataset_path])
        seen = {}
        fit = RepresentationTrainer.fit

        def spy(trainer, users, events, labels, **kwargs):
            seen["distinct"] = len({id(u) for u in users} | {id(e) for e in events})
            seen["history"] = fit(trainer, users, events, labels, **kwargs)
            return seen["history"]

        monkeypatch.setattr(RepresentationTrainer, "fit", spy)
        assert main(["train", "--dataset", dataset_path,
                     "--bundle", str(tmp_path / "bundle"),
                     "--model-scale", "small", "--epochs", "2"]) == 0
        monkeypatch.undo()

        dataset = EventRecDataset.load(dataset_path)
        assert seen["distinct"] <= len(dataset.users) + len(dataset.events)
        encoder = DocumentEncoder.fit(dataset.users, dataset.events, min_df=2)
        pairs = encoder.encode_pairs(
            dataset.split().representation_train,
            dataset.users_by_id,
            dataset.events_by_id,
        )
        model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
        history = RepresentationTrainer(
            model, TrainingConfig(epochs=2, seed=0)
        ).fit(*pairs)
        assert seen["history"].train_losses == history.train_losses

    def test_metrics_missing_file_fails(self, tmp_path, capsys):
        assert main(["metrics", "--telemetry",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_recommend_unknown_user_fails(self, tmp_path, capsys):
        dataset_path = str(tmp_path / "world.json.gz")
        main(["generate", "--scale", "small", "--seed", "5", "--out", dataset_path])
        bundle_path = str(tmp_path / "bundle")
        main(["train", "--dataset", dataset_path, "--bundle", bundle_path,
              "--model-scale", "small", "--epochs", "1"])
        assert main(["recommend", "--dataset", dataset_path,
                     "--bundle", bundle_path, "--user-id", "99999",
                     "--at-time", "900"]) == 2

    def test_recommend_prints_the_reference_ranking(self, tmp_path, capsys):
        """The CLI prints, in order, what the brute-force reference
        ranks for the same bundle, user and time."""
        dataset_path = str(tmp_path / "world.json.gz")
        main(["generate", "--scale", "small", "--seed", "5", "--out", dataset_path])
        bundle_path = str(tmp_path / "bundle")
        main(["train", "--dataset", dataset_path, "--bundle", bundle_path,
              "--model-scale", "small", "--epochs", "1"])
        capsys.readouterr()
        assert main(["recommend", "--dataset", dataset_path,
                     "--bundle", bundle_path, "--user-id", "0",
                     "--at-time", "900", "--top-k", "5"]) == 0
        printed = capsys.readouterr().out.splitlines()[1:]
        dataset = EventRecDataset.load(dataset_path)
        reference = rank_events_loop(
            RepresentationService(load_model_bundle(bundle_path)),
            dataset.users_by_id[0], dataset.events, at_time=900.0, top_k=5,
        )
        assert len(printed) == len(reference) == 5
        for line, scored in zip(printed, reference):
            assert line.startswith(f"  {scored.score:+.3f}  ")
            assert line.endswith(scored.event.title)

    def test_loadgen_smoke_with_artifacts(self, tmp_path, capsys):
        """A short traced run prints percentiles + attribution and
        writes every artifact format."""
        import json

        trace_path = tmp_path / "traces.jsonl"
        chrome_path = tmp_path / "chrome.json"
        assert main([
            "loadgen", "--rate", "150", "--duration", "0.3",
            "--pool-size", "120", "--workers", "2", "--seed", "4",
            "--warmup", "20",
            "--trace-out", str(trace_path),
            "--chrome-out", str(chrome_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "per-stage attribution" in out
        assert "repro_index_gemv" in out
        assert "warmup:        20 requests" in out
        assert "health:" in out
        traces = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert traces and all(t["record"] == "trace" for t in traces)
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"], "chrome trace has events"
        event = chrome["traceEvents"][0]
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)

    def test_loadgen_verdict_matches_health_on_its_telemetry(
        self, tmp_path, capsys, monkeypatch
    ):
        """One run, one verdict: the report's embedded health and
        ``health --telemetry`` over that run's ``--metrics-out`` are
        the same judgment.  Only the candidate-pool monitor drifts
        here (its reference window is seeded with small pools, the
        traffic ranks the whole pool); at the parent the report
        counted that monitor and the subcommand's SLOs did not."""
        import json

        import repro.loadgen

        build = repro.loadgen.build_synthetic_service

        def build_with_small_pool_reference(seed, pool_size):
            service, users, events = build(seed=seed, pool_size=pool_size)
            candidates = service.monitors.candidates
            candidates.observe_many(
                [5.0 + (i % 3) for i in range(candidates.warmup)]
            )
            return service, users, events

        monkeypatch.setattr(
            repro.loadgen, "build_synthetic_service",
            build_with_small_pool_reference,
        )
        telemetry = tmp_path / "load.jsonl"
        assert main([
            "loadgen", "--rate", "150", "--duration", "0.3",
            "--pool-size", "120", "--workers", "2", "--seed", "4",
            "--json",
            "--metrics-out", str(telemetry),
        ]) == 0
        embedded = json.loads(capsys.readouterr().out)["health"]
        assert main(["health", "--telemetry", str(telemetry), "--json"]) == 1
        judged = json.loads(capsys.readouterr().out)
        assert judged["healthy"] is embedded["healthy"] is False
        assert judged["breached"] == embedded["breached"]
        assert judged["breached"] == ["candidate_drift_ok"]

    def test_loadgen_rejects_bad_rate(self, capsys, monkeypatch):
        """Every out-of-range value is ``error: ...`` and exit 2, said
        before the seconds-long stack build (one test, not one per
        flag, so the id the suite has always printed stays)."""
        import repro.loadgen

        def built(*args, **kwargs):
            raise AssertionError("built the stack for a bad flag")

        bad_flags = [
            (["loadgen", "--rate", "0", "--duration", "0.1"], "rate"),
            # 0.1 expected arrivals: the seeded schedule is empty.
            (["loadgen", "--rate", "0.2", "--duration", "0.5"], "draws none"),
            (["loadgen", "--sample-fraction", "2"], "sample_fraction"),
            (["loadgen", "--max-batch", "0"], "max_batch"),
            (["serve", "--max-batch", "0"], "max_batch"),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(repro.loadgen, "build_synthetic_service", built)
            for argv, needle in bad_flags:
                assert main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err.startswith("error: ") and needle in err, argv
        # The pool size is the builder's own argument: it refuses it
        # itself, first thing.
        for command in ("loadgen", "serve"):
            assert main([command, "--pool-size", "0"]) == 2
            assert "error: pool_size" in capsys.readouterr().err

    def test_recommend_rejects_bad_top_k(self, tmp_path, capsys):
        """Exit 2 before anything is loaded: neither path exists."""
        for top_k in ("0", "-2"):
            assert main(["recommend", "--dataset", str(tmp_path / "no-world.json.gz"),
                         "--bundle", str(tmp_path / "no-bundle"), "--user-id", "0",
                         "--at-time", "900", "--top-k", top_k]) == 2
            assert "--top-k" in capsys.readouterr().err


class TestHealthCommand:
    def _write_telemetry(self, path, p99):
        from repro.obs import MetricsRegistry, TelemetryWriter

        registry = MetricsRegistry()
        registry.gauge(
            "repro_loadgen_latency_seconds", tags={"stat": "p99"}
        ).set(p99)
        registry.gauge("repro_cache_hit_rate").set(0.97)
        with TelemetryWriter(path) as writer:
            writer.write_snapshot(registry)

    def test_telemetry_mode_healthy_exits_zero(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.jsonl"
        self._write_telemetry(telemetry, p99=0.004)
        assert main([
            "health", "--telemetry", str(telemetry),
            "--slo", "rank_p99=repro_loadgen_latency_seconds{stat=p99}<=0.01",
            "--slo", "repro_cache_hit_rate>=0.9",
        ]) == 0
        out = capsys.readouterr().out
        assert "health: OK" in out
        assert "rank_p99" in out

    def test_telemetry_mode_breach_exits_one(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.jsonl"
        self._write_telemetry(telemetry, p99=0.5)
        assert main([
            "health", "--telemetry", str(telemetry),
            "--slo", "rank_p99=repro_loadgen_latency_seconds{stat=p99}<=0.01",
        ]) == 1
        assert "breached: rank_p99" in capsys.readouterr().out

    def test_json_output_and_artifact(self, tmp_path, capsys):
        import json

        telemetry = tmp_path / "telemetry.jsonl"
        self._write_telemetry(telemetry, p99=0.004)
        assert main([
            "health", "--telemetry", str(telemetry),
            "--slo", "repro_cache_hit_rate>=0.9",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["healthy"] is True

    def test_missing_telemetry_exits_two(self, tmp_path, capsys):
        assert main([
            "health", "--telemetry", str(tmp_path / "nope.jsonl"),
        ]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_slo_spec_exits_two(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.jsonl"
        self._write_telemetry(telemetry, p99=0.004)
        assert main([
            "health", "--telemetry", str(telemetry), "--slo", "not a spec",
        ]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_telemetry_is_required(self, capsys):
        """``health`` judges a snapshot and runs no load of its own."""
        with pytest.raises(SystemExit) as usage:
            main(["health", "--slo", "repro_cache_hit_rate>=0.9"])
        assert usage.value.code == 2
        assert "--telemetry" in capsys.readouterr().err
