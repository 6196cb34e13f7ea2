"""Golden training numerics: the fixed tiny fit and its recorded values.

One float64 setup — the 1 365 impressions of ``DataConfig.small(seed=3)``
as labelled pairs, dims 12/10/16/8 with text windows 1/3/5, three
epochs of batch 64 — trained once with Adagrad and once with SGD at
momentum 0.9.  Recorded per optimiser: the train and
validation loss curves, and the representations of the world's first
20 users and 20 events under the trained weights.

``tests/golden/test_training.py`` compares a fresh run against
``training.json`` at ``RELATIVE_TOLERANCE``.  A change that is meant to
move these numbers regenerates the file, from the repository root::

    PYTHONPATH=src python -m tests.golden.training

and explains the difference in its change notes.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.trainer import RepresentationTrainer
from repro.datagen.config import DataConfig
from repro.datagen.dataset import EventRecDataset, build_dataset
from repro.text.documents import DocumentEncoder

GOLDEN_PATH = Path(__file__).with_name("training.json")
RELATIVE_TOLERANCE = 1.0e-9
ENCODED = 20
OPTIMISERS = {
    "adagrad": {"optimizer": "adagrad"},
    "sgd_momentum": {"optimizer": "sgd", "momentum": 0.9},
}


def model_config() -> JointModelConfig:
    return JointModelConfig(
        embedding_dim=12,
        module_dim=10,
        hidden_dim=16,
        representation_dim=8,
        seed=3,
        dtype="float64",
    )


@functools.cache
def world() -> EventRecDataset:
    """The goldens' world, built once per process (read, never mutated)."""
    return build_dataset(DataConfig.small(seed=3))


def run() -> dict[str, dict[str, list]]:
    """Train the fixed setup with every optimiser; the values to pin."""
    dataset = world()
    encoder = DocumentEncoder.fit(dataset.users, dataset.events, min_df=2)
    users, events, labels = encoder.encode_pairs(
        dataset.impressions, dataset.users_by_id, dataset.events_by_id
    )
    fixed_users = [encoder.encode_user(user) for user in dataset.users[:ENCODED]]
    fixed_events = [
        encoder.encode_event(event) for event in dataset.events[:ENCODED]
    ]
    values = {}
    for name, options in OPTIMISERS.items():
        model = JointUserEventModel(model_config(), encoder)
        history = RepresentationTrainer(
            model,
            TrainingConfig(epochs=3, batch_size=64, patience=99, seed=3, **options),
        ).fit(users, events, labels)
        values[name] = {
            "train_losses": list(history.train_losses),
            "validation_losses": list(history.validation_losses),
            "user_vectors": model.encode_users(fixed_users).tolist(),
            "event_vectors": model.encode_events(fixed_events).tolist(),
        }
    return values


def load() -> dict[str, dict[str, list]]:
    return json.loads(GOLDEN_PATH.read_text())


def relative_error(actual, expected) -> float:
    """Largest ``|actual - expected| / max(|expected|, 1e-6)``: relative,
    except that entries within 1e-6 of zero are judged against 1e-6."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        raise ValueError(f"shape {actual.shape} != golden {expected.shape}")
    scale = np.maximum(np.abs(expected), 1.0e-6)
    return float((np.abs(actual - expected) / scale).max())


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(run(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
