"""Siamese event-network initialization (Section 3.2.1, last paragraph).

"We take the event sub-net ... and construct a Siamese Network.  We
then sample a large number of events and feed the title and body text
into the network as positive training instances.  We also randomly
pair title and body text from different events and use these as
negative training instances."

The resulting tower is (a) an event-only semantic model usable for
"related events" retrieval without any user feedback, and (b) an
initializer: its lookup table and conv weights can be
transferred into the event side of a :class:`JointUserEventModel`
before supervised training.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.tower import EventTower
from repro.entities import Event
from repro.nn.batching import PackedBatch, pad_batch
from repro.nn.cosine import cosine_similarity, cosine_similarity_backward
from repro.nn.losses import contrastive_loss
from repro.nn.optim import Adagrad, ExponentialDecay
from repro.nn.params import ParamStore
from repro.text.documents import DocumentEncoder, EncodedEvent

__all__ = ["SiameseHistory", "SiameseEventInitializer"]


@dataclass
class SiameseHistory:
    """Per-epoch training losses of the Siamese initializer."""

    losses: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.losses)


class SiameseEventInitializer:
    """Self-supervised event tower trained on (title, body) pairing."""

    def __init__(self, config: JointModelConfig, encoder: DocumentEncoder):
        self.config = config
        self.encoder = encoder
        self.store = ParamStore(dtype=config.dtype)
        rng = np.random.default_rng(config.seed + 7919)
        self.tower = EventTower(
            self.store,
            config,
            text_vocab_size=encoder.event_text_vocab.size,
            rng=rng,
            name="siamese",
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def build_pairs(
        self, events: Sequence[Event], rng: np.random.Generator
    ) -> tuple[list[EncodedEvent], list[EncodedEvent], np.ndarray]:
        """Positive (title, own body) and negative (title, other body)
        pairs, one of each per event, shuffled together."""
        titles = [self.encoder.encode_event_text(event.title) for event in events]
        bodies = [
            self.encoder.encode_event_text(
                f"{event.description} {event.category}"
            )
            for event in events
        ]
        left: list[EncodedEvent] = []
        right: list[EncodedEvent] = []
        labels: list[int] = []
        num_events = len(events)
        for index in range(num_events):
            left.append(titles[index])
            right.append(bodies[index])
            labels.append(1)
            other = int(rng.integers(num_events - 1))
            if other >= index:
                other += 1
            left.append(titles[index])
            right.append(bodies[other])
            labels.append(0)
        order = rng.permutation(len(labels))
        left = [left[i] for i in order]
        right = [right[i] for i in order]
        label_array = np.asarray(labels, dtype=np.float64)[order]
        return left, right, label_array

    def _batches(self, texts: Sequence[EncodedEvent]) -> dict[str, PackedBatch]:
        return {
            EventTower.TEXT_SOURCE: pad_batch(
                [item.text_ids for item in texts], max(self.config.text_windows)
            )
        }

    def _forward(
        self, left: Sequence[EncodedEvent], right: Sequence[EncodedEvent]
    ) -> tuple[np.ndarray, dict]:
        left_rep, left_cache = self.tower.forward_distinct(left, self._batches)
        right_rep, right_cache = self.tower.forward_distinct(
            right, self._batches
        )
        sim, cos_cache = cosine_similarity(left_rep, right_rep)
        return sim, {"left": left_cache, "right": right_cache, "cos": cos_cache}

    def fit(
        self,
        events: Sequence[Event],
        training: TrainingConfig | None = None,
    ) -> SiameseHistory:
        """Train the tower on title/body (mis)pairings."""
        if len(events) < 2:
            raise ValueError("need at least two events to build negative pairs")
        training = training or TrainingConfig(epochs=5, patience=5)
        rng = np.random.default_rng(training.seed + 104729)
        optimizer = Adagrad(self.store, learning_rate=training.learning_rate)
        schedule = ExponentialDecay(training.learning_rate)
        history = SiameseHistory()
        for epoch in range(training.epochs):
            schedule.apply(optimizer, epoch)
            left, right, labels = self.build_pairs(events, rng)
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, len(labels), training.batch_size):
                stop = start + training.batch_size
                optimizer.zero_grad()
                sim, cache = self._forward(left[start:stop], right[start:stop])
                loss, grad_sim = contrastive_loss(
                    sim, labels[start:stop], margin=self.config.margin
                )
                grad_left, grad_right = cosine_similarity_backward(
                    grad_sim, cache["cos"]
                )
                self.tower.backward_distinct(grad_left, cache["left"])
                self.tower.backward_distinct(grad_right, cache["right"])
                optimizer.step()
                epoch_loss += loss
                num_batches += 1
            history.losses.append(epoch_loss / max(num_batches, 1))
        return history

    # ------------------------------------------------------------------
    # usage
    # ------------------------------------------------------------------

    def encode_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Event-only semantic embeddings for raw texts."""
        encoded = [self.encoder.encode_event_text(text) for text in texts]
        return self.tower.encode(encoded, self._batches, batch_size=256)

    def transfer_to(self, model: JointUserEventModel) -> list[str]:
        """Copy the event lookup table and the convolution weights into
        *model*'s event tower (the window sets must match).  Returns
        the list of destination parameter names that were overwritten.
        """
        if model.encoder.event_text_vocab.size != self.encoder.event_text_vocab.size:
            raise ValueError("event vocabularies differ; cannot transfer")
        transferred = []
        model.event_tower.text_embedding.table.value[...] = (
            self.tower.text_embedding.table.value
        )
        transferred.append(model.event_tower.text_embedding.table.name)
        (source,) = self.tower.text_modules
        (target,) = model.event_tower.text_modules
        if source.windows != target.windows:
            raise ValueError(
                f"window mismatch: {source.windows} vs {target.windows}"
            )
        for index in range(len(source.windows)):
            for learned, into in (
                (source.conv.weights[index], target.conv.weights[index]),
                (source.conv.biases[index], target.conv.biases[index]),
            ):
                into.value[...] = learned.value
                transferred.append(into.name)
        return transferred
