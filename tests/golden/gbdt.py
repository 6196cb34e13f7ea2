"""Golden GBDT numerics: the fixed combiner fit and its recorded values.

On the world of ``tests/golden/training.py`` (``DataConfig.small(seed=3)``),
the baseline combiner features (base + CF, no representation) of the
combiner-train period train a 25-tree, 6-leaf :class:`GBDTClassifier`.
Recorded: the per-round train losses, and the participation
probabilities the fit gives its own training rows.

``tests/golden/test_gbdt.py`` compares a fresh run against ``gbdt.json``
at ``RELATIVE_TOLERANCE``, not bit for bit: numpy's ``exp`` differs in
the last bit between its AVX-512 and AVX2 builds, which moves
``base_proximity`` and the losses by an ulp.  Held-out rows are not
recorded because such an ulp can carry a value across a bin edge the
training rows did not set.  A change that is meant to move these
numbers regenerates the file, from the repository root::

    PYTHONPATH=src python -m tests.golden.gbdt

and explains the difference in its change notes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.features.context import FeatureContext
from repro.features.pipeline import CombinerFeaturePipeline, FeatureSetConfig
from repro.gbdt.boosting import GBDTClassifier, GBDTConfig
from tests.golden.training import world

GOLDEN_PATH = Path(__file__).with_name("gbdt.json")


def run() -> dict[str, list]:
    """Fit the fixed combiner; the values to pin."""
    dataset = world()
    splits = dataset.split()
    pipeline = CombinerFeaturePipeline(
        FeatureContext(dataset.users, dataset.events), FeatureSetConfig.baseline()
    )
    pipeline.fit(splits.representation_train)
    features, labels, _ = pipeline.build(splits.combiner_train, dataset.impressions)
    model = GBDTClassifier(GBDTConfig(num_trees=25, max_leaves=6, min_samples_leaf=5))
    model.fit(features, labels)
    return {
        "train_losses": list(model.train_losses),
        "probabilities": model.predict_proba(features).tolist(),
    }


def load() -> dict[str, list]:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(run(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
