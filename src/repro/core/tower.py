"""Per-entity sub-models ("towers"), paper Figure 4 (left/right halves).

A tower concatenates the outputs of its extraction modules, passes
them through an affine hidden layer with tanh, then projects into the
representation layer — which also receives the concatenated feature
vector directly through a bypass projection ("similar to the residual
net idea"), followed by a final tanh:

    f = concat(module outputs)
    h = tanh(W_h f + b_h)
    r = tanh(W_r h + b_r + W_bypass f)

The user tower owns four paper modules (three text windows + one
categorical window-1 module) as two extraction blocks, one per lookup
table; the event tower owns three text modules as one block.

Training pairs repeat entities — the same event is shown to many users
— so a tower can also encode only the *distinct* entities of a batch
and fold the gradients of the repeats back onto them
(:meth:`Tower.forward_distinct` / :meth:`Tower.backward_distinct`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

from repro.core.config import JointModelConfig
from repro.core.extraction import ConvExtractionModule
from repro.nn.batching import PackedBatch
from repro.nn.layers import Affine, Concat, Embedding, Tanh, scatter_add_rows
from repro.nn.params import ParamStore

__all__ = ["Tower", "UserTower", "EventTower"]

Entity = TypeVar("Entity")


def _distinct(entities: Sequence[Entity]) -> tuple[list[Entity], np.ndarray]:
    """The distinct objects of *entities*, in first-seen order, and the
    index among them of every entity.  By identity: encoded documents
    hold arrays and are not hashable."""
    distinct: list[Entity] = []
    row_of: dict[int, int] = {}
    rows = np.empty(len(entities), dtype=np.intp)
    for position, entity in enumerate(entities):
        row = row_of.get(id(entity))
        if row is None:
            row = row_of[id(entity)] = len(distinct)
            distinct.append(entity)
        rows[position] = row
    return distinct, rows


class Tower:
    """A stack of extraction modules + hidden + representation layers.

    Args:
        store: shared parameter store.
        name: parameter-name prefix (``"user"`` / ``"event"``).
        modules: ``(source_key, block)`` pairs; ``source_key`` selects
            which :class:`PackedBatch` each extraction block reads from
            the forward input dict.
        config: architecture dims.
        rng: weight initializer generator.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        modules: list[tuple[str, ConvExtractionModule]],
        config: JointModelConfig,
        rng: np.random.Generator,
    ):
        self.name = name
        self.modules = modules
        feature_dim = sum(module.feature_dim for _, module in modules)
        self.feature_dim = feature_dim
        self.hidden = Affine(
            store, f"{name}.hidden", feature_dim, config.hidden_dim, rng
        )
        self.project = Affine(
            store,
            f"{name}.project",
            config.hidden_dim,
            config.representation_dim,
            rng,
        )
        self.bypass = Affine(
            store,
            f"{name}.bypass",
            feature_dim,
            config.representation_dim,
            rng,
        )

    def forward(
        self, batches: dict[str, PackedBatch]
    ) -> tuple[np.ndarray, dict]:
        """Encode a batch of entities into representation vectors.

        Args:
            batches: one packed batch per source key.

        Returns:
            ``(representations, cache)`` with representations of shape
            ``(batch, representation_dim)``.
        """
        module_outputs = []
        module_caches = []
        for source_key, module in self.modules:
            pooled, cache = module.forward(batches[source_key])
            module_outputs.append(pooled)
            module_caches.append(cache)
        features, concat_cache = Concat.forward(module_outputs)
        hidden_pre, hidden_cache = self.hidden.forward(features)
        hidden_out, hidden_tanh_cache = Tanh.forward(hidden_pre)
        projected, project_cache = self.project.forward(hidden_out)
        bypassed, bypass_cache = self.bypass.forward(features)
        representation, rep_tanh_cache = Tanh.forward(projected + bypassed)
        cache = {
            "modules": module_caches,
            "concat": concat_cache,
            "hidden": hidden_cache,
            "hidden_tanh": hidden_tanh_cache,
            "project": project_cache,
            "bypass": bypass_cache,
            "rep_tanh": rep_tanh_cache,
        }
        return representation, cache

    def backward(self, grad_representation: np.ndarray, cache: dict) -> None:
        """Back-propagate through the tower, accumulating all gradients."""
        grad_pre_rep = Tanh.backward(grad_representation, cache["rep_tanh"])
        grad_features_bypass = self.bypass.backward(grad_pre_rep, cache["bypass"])
        grad_hidden_out = self.project.backward(grad_pre_rep, cache["project"])
        grad_hidden_pre = Tanh.backward(grad_hidden_out, cache["hidden_tanh"])
        grad_features_hidden = self.hidden.backward(grad_hidden_pre, cache["hidden"])
        grad_features = grad_features_bypass + grad_features_hidden
        module_grads = Concat.backward(grad_features, cache["concat"])
        for (source_key, module), grad, module_cache in zip(
            self.modules, module_grads, cache["modules"]
        ):
            module.backward(grad, module_cache)

    def encode(
        self,
        entities: Sequence[Entity],
        to_batches: Callable[[Sequence[Entity]], dict[str, PackedBatch]],
        batch_size: int,
    ) -> np.ndarray:
        """Forward-only representations of *entities*, *batch_size* at a
        time: ``(len(entities), representation_dim)``, also when empty."""
        weight = self.project.weight.value
        out = np.empty((len(entities), weight.shape[0]), dtype=weight.dtype)
        for start in range(0, len(entities), batch_size):
            stop = start + batch_size
            representation, _ = self.forward(to_batches(entities[start:stop]))
            out[start:stop] = representation
        return out

    def forward_distinct(
        self,
        entities: Sequence[Entity],
        to_batches: Callable[[Sequence[Entity]], dict[str, PackedBatch]],
    ) -> tuple[np.ndarray, dict]:
        """:meth:`forward` over the distinct *entities* only.

        Returns one representation row per entity (repeats share the
        row computed once) and the cache for :meth:`backward_distinct`.
        """
        distinct, rows = _distinct(entities)
        representation, cache = self.forward(to_batches(distinct))
        return representation[rows], {"tower": cache, "rows": rows}

    def backward_distinct(
        self, grad_representation: np.ndarray, cache: dict
    ) -> None:
        """:meth:`backward` after summing the gradient rows of repeats."""
        rows = cache["rows"]
        folded = scatter_add_rows(rows, grad_representation, rows.max() + 1)
        self.backward(folded, cache["tower"])


class UserTower(Tower):
    """User sub-model: a text block (three windows) + a categorical block.

    Reads two sources from the input dict: ``"text"`` (letter-trigram
    ids of the user document) and ``"ids"`` (unigram ids of the
    categorical feature-value tokens).
    """

    TEXT_SOURCE = "text"
    ID_SOURCE = "ids"
    ID_WINDOWS = (1,)

    def __init__(
        self,
        store: ParamStore,
        config: JointModelConfig,
        text_vocab_size: int,
        id_vocab_size: int,
        rng: np.random.Generator,
    ):
        self.text_embedding = Embedding(
            store,
            "user.text_embedding",
            text_vocab_size,
            config.embedding_dim,
            rng,
            init_scale=config.embedding_init_scale,
        )
        self.id_embedding = Embedding(
            store,
            "user.id_embedding",
            id_vocab_size,
            config.embedding_dim,
            rng,
            init_scale=config.embedding_init_scale,
        )
        modules = [
            (
                self.TEXT_SOURCE,
                ConvExtractionModule(
                    store,
                    "user.text_conv",
                    self.text_embedding,
                    config.text_windows,
                    config.module_dim,
                    rng,
                ),
            ),
            (
                self.ID_SOURCE,
                ConvExtractionModule(
                    store,
                    "user.id_conv",
                    self.id_embedding,
                    self.ID_WINDOWS,
                    config.module_dim,
                    rng,
                ),
            ),
        ]
        super().__init__(store, "user", modules, config, rng)


class EventTower(Tower):
    """Event sub-model: one text block (three windows, one lookup table)."""

    TEXT_SOURCE = "text"

    def __init__(
        self,
        store: ParamStore,
        config: JointModelConfig,
        text_vocab_size: int,
        rng: np.random.Generator,
        name: str = "event",
    ):
        self.text_embedding = Embedding(
            store,
            f"{name}.text_embedding",
            text_vocab_size,
            config.embedding_dim,
            rng,
            init_scale=config.embedding_init_scale,
        )
        modules = [
            (
                self.TEXT_SOURCE,
                ConvExtractionModule(
                    store,
                    f"{name}.text_conv",
                    self.text_embedding,
                    config.text_windows,
                    config.module_dim,
                    rng,
                ),
            )
        ]
        super().__init__(store, name, modules, config, rng)

    @property
    def text_modules(self) -> list[ConvExtractionModule]:
        return [module for _, module in self.modules]
