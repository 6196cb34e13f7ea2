"""Golden worlds: a sha256 per simulated world the suites train on.

Each fingerprint covers every field :meth:`EventRecDataset.save` writes
except ``config``: users with their friend lists, events, impressions,
both ground-truth mixture matrices, ``graph_stats`` and
``raw_positive_rate``.  The payload is built here rather than read
back from a gzipped ``save`` (a second per bench world); the test
holds the two equal on one small world, so a field ``save`` gains
fails it until it is added here.  The worlds:

* ``small_3`` — the training/Siamese goldens' world and the ``ci``
  scale's ``world``;
* ``small_9`` — the ``ci`` scale's ``ablation_world``;
* ``small_11`` — the world of ``tests/conftest.py``;
* ``bench_0`` — the benchmark harness's world;
* ``bench_3`` / ``full_ablation`` — the paper suite's two worlds
  (``SCALES["full"]``).

Worlds are pinned exactly: a change to :mod:`repro.datagen` that is
meant to be a pure speed-up must leave every byte of every world alone.
``tests/golden/test_worlds.py`` rebuilds each world and compares.  A
change meant to move the worlds regenerates the file, from the
repository root::

    PYTHONPATH=src python -m tests.golden.worlds

and explains the difference in its change notes.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import tempfile
from pathlib import Path

from repro.datagen.config import DataConfig
from repro.datagen.dataset import EventRecDataset, build_dataset
from repro.eval.protocol import SCALES

GOLDEN_PATH = Path(__file__).with_name("worlds.json")

WORLDS: dict[str, DataConfig] = {
    "small_3": DataConfig.small(seed=3),
    "small_9": DataConfig.small(seed=9),
    "small_11": DataConfig.small(seed=11),
    "bench_0": DataConfig.bench(seed=0),
    "bench_3": DataConfig.bench(seed=3),
    "full_ablation": SCALES["full"].ablation_world,
}


def payload(dataset: EventRecDataset) -> dict:
    """What :meth:`EventRecDataset.save` writes, minus ``config``."""
    return {
        "users": [user.to_dict() for user in dataset.users],
        "events": [event.to_dict() for event in dataset.events],
        "impressions": [imp.to_dict() for imp in dataset.impressions],
        "user_mixtures": dataset.user_mixtures.tolist(),
        "event_mixtures": dataset.event_mixtures.tolist(),
        "graph_stats": dataset.graph_stats,
        "raw_positive_rate": dataset.raw_positive_rate,
    }


def saved_payload(dataset: EventRecDataset) -> dict:
    """The same, read back from a real :meth:`EventRecDataset.save`."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "world.json.gz"
        dataset.save(path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            saved = json.load(handle)
    del saved["config"]
    return saved


def digest(values: dict) -> str:
    """sha256 of *values* as canonical JSON (keys sorted, floats by repr)."""
    canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run(name: str) -> str:
    return digest(payload(build_dataset(WORLDS[name])))


def load() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    values = {name: run(name) for name in WORLDS}
    GOLDEN_PATH.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
