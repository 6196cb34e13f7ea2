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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """``(dataset path, bundle path)``: the ``small`` world of seed 5
    and a one-epoch ``small`` model trained on it, both written by the
    CLI.  Read-only: a test that damages a file damages a copy."""
    root = tmp_path_factory.mktemp("trained")
    dataset, bundle = str(root / "world.json.gz"), str(root / "bundle")
    assert main(["generate", "--scale", "small", "--seed", "5", "--out", dataset]) == 0
    assert main(["train", "--dataset", dataset, "--bundle", bundle,
                 "--model-scale", "small", "--epochs", "1"]) == 0
    return dataset, bundle


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

    def test_experiment_scales_are_the_protocols(self):
        """The parser spells the scale names out, so it loads no stage-2
        module; they stay the names of ``SCALES``."""
        from repro.eval.protocol import SCALES

        (commands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        (scale,) = [
            action
            for action in commands.choices["experiment"]._actions
            if action.dest == "scale"
        ]
        assert sorted(scale.choices) == sorted(SCALES)

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
        """--metrics-out writes epoch records and the training metrics,
        and no serving series: ``train`` serves nothing.  ``metrics``
        renders the snapshot as Prometheus text."""
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
        assert not [name for name in metrics
                    if name.startswith(("repro_serving_", "repro_cache_"))]
        epoch_seconds = metrics["repro_train_epoch_seconds"]
        assert epoch_seconds["count"] == 2
        for stat in ("p50", "p95", "p99"):
            assert epoch_seconds["quantiles"][stat] is not None
        assert metrics["repro_train_epochs_total"]["value"] == 2
        assert metrics["repro_train_epoch_loss"]["value"] > 0.0

        capsys.readouterr()  # drop train output
        assert main(["metrics", "--telemetry", telemetry_path]) == 0
        rendered = capsys.readouterr().out
        assert "# TYPE repro_train_epoch_loss gauge" in rendered
        assert "# TYPE repro_train_epoch_seconds summary" in rendered
        assert "repro_serving_" not in rendered

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

    def test_recommend_unknown_user_fails(self, trained):
        dataset_path, bundle_path = trained
        assert main(["recommend", "--dataset", dataset_path,
                     "--bundle", bundle_path, "--user-id", "99999",
                     "--at-time", "900"]) == 2

    def test_recommend_prints_the_reference_ranking(self, trained, capsys):
        """The CLI prints, in order, what the brute-force reference
        ranks for the same bundle, user and time."""
        dataset_path, bundle_path = trained
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

    def test_corrupt_inputs_exit_two(self, trained, tmp_path, capsys):
        """A damaged ``--dataset`` or ``--bundle`` file is one ``error:
        ...`` line naming it and exit 2, not a traceback, for every
        command that reads it."""
        import json
        import shutil

        dataset, bundle = trained
        not_gzip = tmp_path / "not-gzip.json.gz"
        not_gzip.write_bytes(b'{"users": []}')

        def damaged(file, change):
            """A copy of the bundle with ``file`` changed; ``(path, file)``."""
            copy = tmp_path / f"damaged-{file}"
            shutil.copytree(bundle, copy)
            change(copy / file)
            return str(copy), file

        def without_tokens(path):
            vocabs = json.loads(path.read_text())
            del vocabs["user_text"]["tokens"]
            path.write_text(json.dumps(vocabs))

        bundles = [
            damaged("params.npz", lambda path: path.write_bytes(path.read_bytes()[:200])),
            damaged("vocabs.json", without_tokens),
            damaged("config.json", lambda path: path.write_text("{not json")),
        ]
        query = ["--user-id", "0", "--at-time", "900"]
        cases = [
            (["train", "--dataset", str(not_gzip),
              "--bundle", str(tmp_path / "out")], "not-gzip.json.gz"),
            (["recommend", "--dataset", str(not_gzip), "--bundle", bundle, *query],
             "not-gzip.json.gz"),
            (["serve", "--port", "0", "--dataset", str(not_gzip), "--bundle", bundle],
             "not-gzip.json.gz"),
        ]
        for path, needle in bundles:
            cases.append((["recommend", "--dataset", dataset, "--bundle", path,
                           *query], needle))
            cases.append((["serve", "--port", "0", "--dataset", dataset,
                           "--bundle", path], needle))
        for argv, needle in cases:
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and needle in err, (argv, err)
            assert err.count("\n") == 1, (argv, err)

    def test_recommend_rejects_bad_top_k(self, tmp_path, capsys):
        """Exit 2 before anything is loaded: neither path exists."""
        for top_k in ("0", "-2"):
            assert main(["recommend", "--dataset", str(tmp_path / "no-world.json.gz"),
                         "--bundle", str(tmp_path / "no-bundle"), "--user-id", "0",
                         "--at-time", "900", "--top-k", top_k]) == 2
            assert "--top-k" in capsys.readouterr().err


def serve_in_process(argv, monkeypatch, drive):
    """Run ``main(["serve", "--port", "0", *argv])`` in this process;
    once it has armed its SIGTERM drain, call ``drive(hosted)`` on a
    thread, then SIGTERM it.  ``(exit status, failures)``: what
    ``drive`` raised, or a server that never came up."""
    import os
    import signal
    import threading
    import time

    from repro.serving.server import ThreadedServer

    started = []
    start = ThreadedServer.start

    def recording_start(hosted):
        address = start(hosted)
        started.append(hosted)
        return address

    monkeypatch.setattr(ThreadedServer, "start", recording_start)
    failures = []

    def run():
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
        try:
            drive(started[0])
        except Exception as error:  # reported by the caller, after the drain
            failures.append(repr(error))
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    traffic = threading.Thread(target=run, daemon=True)
    traffic.start()
    status = main(["serve", "--port", "0", *argv])
    traffic.join(timeout=30.0)
    assert not traffic.is_alive()
    return status, failures


def post_json(hosted, path, body):
    """POST ``body`` on a connection of its own; ``(status, reply)``."""
    import http.client
    import json

    connection = http.client.HTTPConnection(hosted.host, hosted.port, timeout=10.0)
    try:
        connection.request("POST", path, body=json.dumps(body))
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestServeCommand:
    """``serve`` is the process an operator runs: it serves a trained
    bundle over its dataset and, stopped through its drain path, writes
    the traces and telemetry the stock health verdict and a trace
    reader need."""

    def test_traced_serve_writes_a_healthy_snapshot_and_joined_traces(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        import json

        def drive(hosted):
            for user_id in range(12):
                path, body = (
                    ("/score", {"user_id": user_id, "event_id": 0})
                    if user_id % 3 == 2
                    else ("/recommend", {"user_id": user_id, "top_k": 5})
                )
                status, _ = post_json(hosted, path, body)
                assert status == 200, (path, status)

        dataset, bundle = trained
        traces = tmp_path / "traces.jsonl"
        telemetry = tmp_path / "serve.jsonl"
        status, failures = serve_in_process(
            ["--dataset", dataset, "--bundle", bundle,
             "--trace-out", str(traces), "--metrics-out", str(telemetry)],
            monkeypatch, drive,
        )
        assert (status, failures) == (0, [])
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

    def test_served_answers_equal_offline_ranking(self, trained, monkeypatch):
        """What ``serve --dataset --bundle`` answers on /recommend is
        bit for bit what ``rank_events`` on ``load_model_bundle`` of the
        same files returns: ids, order and scores, for several users,
        with and without ``at_time``, ``top_k`` and ``event_ids``.

        The offline service is warmed as ``serve`` warms it (every user
        and event, in id order): a vector encoded in a batch can differ
        from the same entity encoded alone in the last bits, so a cold
        service is held to the same ids and scores within 1e-12 only."""
        dataset_path, bundle_path = trained
        dataset = EventRecDataset.load(dataset_path)
        starts = sorted(event.starts_at for event in dataset.events)
        at_time = starts[len(starts) // 2]
        pool = [event.event_id for event in dataset.events[::3]]
        payloads = [
            {"user_id": user_id, **extra}
            for user_id in (0, 17, 64, len(dataset.users) - 1)
            for extra in (
                {},
                {"top_k": 4},
                {"at_time": at_time},
                {"at_time": at_time, "top_k": 3},
                {"event_ids": pool},
                {"event_ids": pool, "at_time": at_time, "top_k": 5},
            )
        ]
        served = []

        def drive(hosted):
            for payload in payloads:
                status, reply = post_json(hosted, "/recommend", payload)
                assert status == 200, (payload, reply)
                served.append(reply["results"])

        status, failures = serve_in_process(
            ["--dataset", dataset_path, "--bundle", bundle_path], monkeypatch, drive
        )
        assert (status, failures) == (0, [])
        assert all(served), "every query has active events to compare"

        warm = RepresentationService(load_model_bundle(bundle_path))
        warm.warm(
            sorted(dataset.users, key=lambda user: user.user_id),
            sorted(dataset.events, key=lambda event: event.event_id),
        )
        cold = RepresentationService(load_model_bundle(bundle_path))
        for payload, results in zip(payloads, served, strict=True):
            events = (
                [dataset.events_by_id[event_id] for event_id in payload["event_ids"]]
                if "event_ids" in payload
                else dataset.events
            )
            user = dataset.users_by_id[payload["user_id"]]
            query = {"at_time": payload.get("at_time"), "top_k": payload.get("top_k")}
            offline = warm.rank_events(user, events, **query)
            answer = [(item["event_id"], item["score"]) for item in results]
            assert answer == [
                (scored.event.event_id, scored.score) for scored in offline
            ], payload
            alone = cold.rank_events(user, events, **query)
            assert [event_id for event_id, _ in answer] == [
                scored.event.event_id for scored in alone
            ], payload
            np.testing.assert_allclose(
                [score for _, score in answer], [scored.score for scored in alone],
                rtol=0.0, atol=1e-12,
            )

    def test_sigterm_drains_and_writes_telemetry(self, trained, tmp_path):
        """What a process manager (or ``kill``) sends: the server drains
        and exits 0 with its telemetry written."""
        import json
        import os
        import signal
        import subprocess
        import sys

        dataset, bundle = trained
        telemetry = tmp_path / "serve.jsonl"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), environment.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--dataset", dataset, "--bundle", bundle,
             "--metrics-out", str(telemetry)],
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
        assert [json.loads(line)["record"] for line in telemetry.read_text().splitlines()] == [
            "run", "snapshot"
        ]

    def test_dataset_and_bundle_are_required(self, capsys):
        """There is one thing to serve, a trained bundle over its
        dataset: neither flag has a default."""
        for argv in (["serve"], ["serve", "--dataset", "w.json.gz"],
                     ["serve", "--bundle", "b"]):
            with pytest.raises(SystemExit) as usage:
                main(argv)
            assert usage.value.code == 2
            assert "required" in capsys.readouterr().err


class TestHealthCommand:
    def _write_telemetry(self, path, p99):
        from repro.obs.export import TelemetryWriter
        from repro.obs.registry import MetricsRegistry

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

    def test_infinite_zscore_reads_as_breach_from_the_file(
        self, tmp_path, capsys, strict_loads
    ):
        """The file says what the live registry says: a monitor's -inf
        z-score prints as -Inf and breaches, not NaN and missing."""
        from repro.obs.drift import DriftMonitor
        from repro.obs.export import TelemetryWriter
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        monitor = DriftMonitor("serving_user_norms", window=64)
        for value in [80.0] * 64 + [40.0] * 64:
            monitor.observe(value)
        monitor.export(registry)
        telemetry = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(telemetry) as writer:
            writer.write_snapshot(registry)
        assert main(["metrics", "--telemetry", str(telemetry)]) == 0
        assert (
            'repro_drift_mean_zscore{monitor="serving_user_norms"} -Inf'
            in capsys.readouterr().out
        )
        assert main([
            "health", "--telemetry", str(telemetry),
            "--slo", "z=repro_drift_mean_zscore{monitor=serving_user_norms}>=-4",
        ]) == 1
        assert "breached: z" in capsys.readouterr().out
        # The JSON renderings stay strict: -inf is "-Inf", as in the file.
        assert main([
            "health", "--telemetry", str(telemetry), "--json",
            "--slo", "z=repro_drift_mean_zscore{monitor=serving_user_norms}>=-4",
        ]) == 1
        (verdict,) = strict_loads(capsys.readouterr().out)["slos"]
        assert (verdict["status"], verdict["value"]) == ("breach", "-Inf")
        assert main(["metrics", "--telemetry", str(telemetry), "--format", "json"]) == 0
        snapshot = strict_loads(capsys.readouterr().out)
        assert "-Inf" in [metric["value"] for metric in snapshot]

    @pytest.mark.parametrize("command", ["metrics", "health"])
    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '{"record": "snapshot", "metrics": 5}',
            '{"record": "snapshot", "metrics": [{"type": "gauge", "value": 1}]}',
        ],
        ids=["not-an-object", "metrics-not-a-list", "metric-without-name"],
    )
    def test_malformed_telemetry_exits_two(self, tmp_path, capsys, command, line):
        """A corrupt file is a usage error (2), not a breach (1), and
        prints one ``error:`` line naming the file, no traceback."""
        telemetry = tmp_path / "telemetry.jsonl"
        telemetry.write_text(line + "\n")
        assert main([command, "--telemetry", str(telemetry)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (message,) = captured.err.splitlines()
        assert message.startswith(f"error: {telemetry}:1: ")

    @pytest.mark.parametrize(
        "command",
        [["metrics"], ["health", "--slo", "x=m>=0"]],
        ids=["metrics", "health"],
    )
    @pytest.mark.parametrize(
        "metric",
        [
            '{"name": "m", "type": "gauge"}',
            '{"name": "m", "type": "histogram", "count": 1, "sum": 1.0, '
            '"min": 1.0, "max": 1.0}',
        ],
        ids=["gauge-without-value", "histogram-without-quantiles"],
    )
    def test_metric_missing_a_field_exits_two(self, tmp_path, capsys, command, metric):
        """A named, typed record without its type's fields is a corrupt
        file too: not a ``KeyError`` traceback, and not a breach."""
        telemetry = tmp_path / "telemetry.jsonl"
        telemetry.write_text(f'{{"record": "snapshot", "metrics": [{metric}]}}\n')
        assert main([*command, "--telemetry", str(telemetry)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (message,) = captured.err.splitlines()
        assert message.startswith(f"error: {telemetry}:1: ") and "'m' has no" in message
