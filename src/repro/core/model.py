"""The joint user-event representation model (paper Figure 4).

Two parallel towers connected only by a cosine head.  The public
surface is:

* :meth:`JointUserEventModel.similarity` — s_θ(u, e) for batches of
  encoded pairs;
* :meth:`JointUserEventModel.train_step` — one minibatch update with
  the Equation-1 contrastive loss;
* :meth:`JointUserEventModel.encode_users` /
  :meth:`~JointUserEventModel.encode_events` — the cached
  representation vectors v_u / v_e handed to the combiner (Section 4).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.config import JointModelConfig
from repro.core.tower import EventTower, UserTower
from repro.nn.batching import PackedBatch, pad_batch
from repro.nn.cosine import cosine_similarity, cosine_similarity_backward
from repro.nn.losses import contrastive_loss
from repro.nn.params import ParamStore
from repro.text.documents import DocumentEncoder, EncodedEvent, EncodedUser

__all__ = ["JointUserEventModel"]


class JointUserEventModel:
    """Parallel CNN towers + cosine head + contrastive training."""

    def __init__(self, config: JointModelConfig, encoder: DocumentEncoder):
        self.config = config
        self.encoder = encoder
        self.store = ParamStore(dtype=config.dtype)
        rng = np.random.default_rng(config.seed)
        self.user_tower = UserTower(
            self.store,
            config,
            text_vocab_size=encoder.user_text_vocab.size,
            id_vocab_size=encoder.user_id_vocab.size,
            rng=rng,
        )
        self.event_tower = EventTower(
            self.store,
            config,
            text_vocab_size=encoder.event_text_vocab.size,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # batching
    # ------------------------------------------------------------------

    def user_batches(
        self, users: Sequence[EncodedUser]
    ) -> dict[str, PackedBatch]:
        """Pack a list of encoded users into per-source batches."""
        return {
            UserTower.TEXT_SOURCE: pad_batch(
                [user.text_ids for user in users], max(self.config.text_windows)
            ),
            UserTower.ID_SOURCE: pad_batch(
                [user.id_feature_ids for user in users],
                max(UserTower.ID_WINDOWS),
            ),
        }

    def event_batches(
        self, events: Sequence[EncodedEvent]
    ) -> dict[str, PackedBatch]:
        """Pack a list of encoded events into per-source batches."""
        return {
            EventTower.TEXT_SOURCE: pad_batch(
                [event.text_ids for event in events],
                max(self.config.text_windows),
            )
        }

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def forward_pairs(
        self, users: Sequence[EncodedUser], events: Sequence[EncodedEvent]
    ) -> tuple[np.ndarray, dict]:
        """Similarity of aligned (user, event) pairs, with caches.

        Each tower encodes the batch's distinct entities once; pairs
        that name the same user or event share its row.
        """
        if len(users) != len(events):
            raise ValueError(
                f"pair mismatch: {len(users)} users vs {len(events)} events"
            )
        user_rep, user_cache = self.user_tower.forward_distinct(
            users, self.user_batches
        )
        event_rep, event_cache = self.event_tower.forward_distinct(
            events, self.event_batches
        )
        sim, cos_cache = cosine_similarity(user_rep, event_rep)
        cache = {"user": user_cache, "event": event_cache, "cosine": cos_cache}
        return sim, cache

    def backward_from_similarity(
        self, grad_similarity: np.ndarray, cache: dict
    ) -> None:
        """Back-propagate d(loss)/d(similarity) through both towers."""
        grad_user, grad_event = cosine_similarity_backward(
            grad_similarity, cache["cosine"]
        )
        self.user_tower.backward_distinct(grad_user, cache["user"])
        self.event_tower.backward_distinct(grad_event, cache["event"])

    def pair_loss(
        self,
        users: Sequence[EncodedUser],
        events: Sequence[EncodedEvent],
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray, dict]:
        """Equation-1 loss on a batch of pairs.

        Returns ``(loss, grad_similarity, cache)`` so callers can
        choose whether to back-propagate.
        """
        sim, cache = self.forward_pairs(users, events)
        loss, grad_sim = contrastive_loss(
            sim, labels, margin=self.config.margin, sample_weight=sample_weight
        )
        return loss, grad_sim, cache

    def train_step(
        self,
        users: Sequence[EncodedUser],
        events: Sequence[EncodedEvent],
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> float:
        """Accumulate gradients for one minibatch; returns the loss.

        The caller owns ``optimizer.zero_grad()`` / ``optimizer.step()``.
        """
        loss, grad_sim, cache = self.pair_loss(
            users, events, labels, sample_weight=sample_weight
        )
        self.backward_from_similarity(grad_sim, cache)
        return loss

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def similarity(
        self, users: Sequence[EncodedUser], events: Sequence[EncodedEvent]
    ) -> np.ndarray:
        """s_θ(u, e) for aligned pairs (no gradient bookkeeping kept)."""
        sim, _ = self.forward_pairs(users, events)
        return sim

    def encode_users(
        self, users: Sequence[EncodedUser], batch_size: int = 256
    ) -> np.ndarray:
        """Representation vectors v_u, shape ``(n, representation_dim)``."""
        return self.user_tower.encode(users, self.user_batches, batch_size)

    def encode_events(
        self, events: Sequence[EncodedEvent], batch_size: int = 256
    ) -> np.ndarray:
        """Representation vectors v_e, shape ``(n, representation_dim)``."""
        return self.event_tower.encode(events, self.event_batches, batch_size)

    def num_parameters(self) -> int:
        """Total scalar weights across both towers (the size of θ)."""
        return self.store.num_values()
