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

    def test_experiment_runs_a_named_scale(self):
        args = build_parser().parse_args(["experiment", "--seed", "4"])
        assert (args.scale, args.seed) == ("ci", 4)
        assert build_parser().parse_args(["experiment", "--scale", "full"]).scale == "full"
        for retired in (["--scale", "small"], ["--epochs", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["experiment", *retired])


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
        assert "# TYPE repro_serving_encode_seconds summary" in rendered
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

    def test_serve_rejects_bad_pool_size(self, capsys):
        """The pool size is ``_build_synthetic_service``'s own argument:
        it refuses it itself, first thing, as ``error: ...`` and exit 2."""
        assert main(["serve", "--pool-size", "0"]) == 2
        assert "error: pool_size" in capsys.readouterr().err

    def test_missing_input_paths_exit_two(self, tmp_path, capsys):
        """A missing ``--dataset`` or ``--bundle`` is ``error: ...`` and
        exit 2, as for ``metrics`` and ``health``, not a traceback."""
        dataset = str(tmp_path / "world.json.gz")
        missing_dataset = str(tmp_path / "no-world.json.gz")
        missing_bundle = str(tmp_path / "no-bundle")
        main(["generate", "--scale", "small", "--seed", "5", "--out", dataset])
        query = ["--user-id", "0", "--at-time", "900"]
        for argv, needle in [
            (["train", "--dataset", missing_dataset, "--bundle", missing_bundle],
             "no-world.json.gz"),
            (["recommend", "--dataset", missing_dataset,
              "--bundle", missing_bundle, *query], "no-world.json.gz"),
            (["recommend", "--dataset", dataset,
              "--bundle", missing_bundle, *query], "no-bundle"),
            (["serve", "--dataset", missing_dataset, "--bundle", missing_bundle],
             "no-world.json.gz"),
            (["serve", "--dataset", dataset, "--bundle", missing_bundle],
             "no-bundle"),
        ]:
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and needle in err, (argv, err)

    def test_recommend_rejects_bad_top_k(self, tmp_path, capsys):
        """Exit 2 before anything is loaded: neither path exists."""
        for top_k in ("0", "-2"):
            assert main(["recommend", "--dataset", str(tmp_path / "no-world.json.gz"),
                         "--bundle", str(tmp_path / "no-bundle"), "--user-id", "0",
                         "--at-time", "900", "--top-k", top_k]) == 2
            assert "--top-k" in capsys.readouterr().err


class TestServeCommand:
    """``serve`` is the process an operator runs: stopped through its
    drain path, it writes the traces and telemetry the stock health
    verdict and a trace reader need."""

    def test_traced_serve_writes_a_healthy_snapshot_and_joined_traces(
        self, tmp_path, capsys, monkeypatch
    ):
        import http.client
        import json
        import os
        import signal
        import threading
        import time

        from repro.serving import ThreadedServer

        started = []
        start = ThreadedServer.start

        def recording_start(hosted):
            address = start(hosted)
            started.append(hosted)
            return address

        monkeypatch.setattr(ThreadedServer, "start", recording_start)
        failures = []

        def drive():
            # SIGTERM only once serve drains on it: its default action
            # would end the test process.
            deadline = time.monotonic() + 120.0
            while not (
                started
                and signal.getsignal(signal.SIGTERM) is signal.default_int_handler
            ):
                if time.monotonic() > deadline:
                    failures.append("serve never armed its SIGTERM drain")
                    if started:
                        started[0].stop()
                    return
                time.sleep(0.01)
            hosted = started[0]
            try:
                connection = http.client.HTTPConnection(
                    hosted.host, hosted.port, timeout=10.0
                )
                for user_id in range(12):
                    path, body = (
                        ("/score", {"user_id": user_id, "event_id": 0})
                        if user_id % 3 == 2
                        else ("/recommend", {"user_id": user_id, "top_k": 5})
                    )
                    connection.request("POST", path, body=json.dumps(body))
                    response = connection.getresponse()
                    response.read()
                    if response.status != 200:
                        failures.append((path, response.status))
                connection.close()
            except Exception as error:  # reported below, after the drain
                failures.append(repr(error))
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        traces = tmp_path / "traces.jsonl"
        telemetry = tmp_path / "serve.jsonl"
        traffic = threading.Thread(target=drive, daemon=True)
        traffic.start()
        assert main([
            "serve", "--port", "0", "--pool-size", "60",
            "--trace-out", str(traces), "--metrics-out", str(telemetry),
        ]) == 0
        traffic.join(timeout=30.0)
        assert not traffic.is_alive()
        assert failures == []
        assert "draining" in capsys.readouterr().err

        assert main(["health", "--telemetry", str(telemetry)]) == 0
        assert "recommend_p99" in capsys.readouterr().out

        rank = {"repro_serving_rank", "repro_serving_rank_batch"}
        retained = [json.loads(line) for line in traces.read_text().splitlines()]
        joined = [
            trace for trace in retained
            if trace["root"] == "repro_serving_http_request"
            and trace["spans"][-1]["tags"] == {"route": "/recommend"}
            and rank & {record["name"] for record in trace["spans"]}
        ]
        assert joined, [trace["root"] for trace in retained]
        for trace in joined:
            assert len({record["thread"] for record in trace["spans"]}) == 1

    def test_sigterm_drains_and_writes_telemetry(self, tmp_path):
        """What a process manager (or ``kill``) sends: the server drains
        and exits 0 with its telemetry written."""
        import os
        import signal
        import subprocess
        import sys

        from repro.obs import read_telemetry

        telemetry = tmp_path / "serve.jsonl"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), environment.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--pool-size", "60", "--metrics-out", str(telemetry)],
            stderr=subprocess.PIPE, text=True, env=environment,
        )
        announced = []
        try:
            for line in iter(process.stderr.readline, ""):
                announced.append(line)
                if line.startswith("serving on"):
                    break
            process.send_signal(signal.SIGTERM)
            _, rest = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, "".join(announced) + rest
        assert "draining" in rest
        assert [record["record"] for record in read_telemetry(telemetry)] == [
            "run", "snapshot"
        ]


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
