"""Golden Siamese numerics: the fixed tiny title/body fit and its values.

The setup of ``tests/golden/training.py`` (``DataConfig.small(seed=3)``,
min-DF 2 vocabularies, float64 dims 12/10/16/8) trains a
:class:`SiameseEventInitializer` for three epochs of batch 64 on the
world's events.  Recorded: the per-epoch losses, and the semantic
embeddings (``encode_texts``) of the first ten event titles.  Both run
through ``DocumentEncoder.encode_event_text``, a path the training
golden never touches.

``tests/golden/test_siamese.py`` compares a fresh run against
``siamese.json`` at ``RELATIVE_TOLERANCE``.  A change that is meant to
move these numbers regenerates the file, from the repository root::

    PYTHONPATH=src python -m tests.golden.siamese

and explains the difference in its change notes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import TrainingConfig
from repro.core.siamese import SiameseEventInitializer
from repro.text.documents import DocumentEncoder
from tests.golden.training import model_config, world

GOLDEN_PATH = Path(__file__).with_name("siamese.json")
TITLES = 10


def run() -> dict[str, list]:
    """Train the fixed Siamese setup; the values to pin."""
    dataset = world()
    encoder = DocumentEncoder.fit(dataset.users, dataset.events, min_df=2)
    initializer = SiameseEventInitializer(model_config(), encoder)
    history = initializer.fit(
        dataset.events,
        TrainingConfig(epochs=3, batch_size=64, patience=99, seed=3),
    )
    titles = [event.title for event in dataset.events[:TITLES]]
    return {
        "losses": list(history.losses),
        "title_vectors": initializer.encode_texts(titles).tolist(),
    }


def load() -> dict[str, list]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(run(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
