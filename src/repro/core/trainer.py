"""Training loop for the joint representation model (Section 3.2.1).

Implements the paper's recipe: minibatch SGD back-propagation, learning
rate decayed to 90% per epoch, early stopping on a held-out validation
slice, convergence expected well under 20 epochs.  The trainer restores
the best-validation parameters when stopping.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TrainingConfig
from repro.core.model import JointUserEventModel
from repro.nn.losses import contrastive_loss
from repro.nn.optim import SGD, Adagrad, ExponentialDecay, Optimizer
from repro.obs.drift import DriftMonitor, DriftThresholds
from repro.obs.log import get_logger
from repro.obs.registry import get_registry
from repro.obs.trace import record_stage, span
from repro.text.documents import EncodedEvent, EncodedUser

__all__ = ["TrainingHistory", "RepresentationTrainer", "EpochCallback"]

_log = get_logger("repro.core.trainer")

# Training durations dwarf serving latencies: 10 ms .. 30 min.
_TRAIN_DURATION_BUCKETS = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0,
)

EpochCallback = Callable[[int, Mapping[str, float]], None]
"""``on_epoch_end(epoch_index, stats)`` observer; ``stats`` carries
``epoch`` (1-based), ``train_loss``, ``val_loss``, ``learning_rate``,
``seconds`` and ``grad_norm`` (NaN unless telemetry is enabled)."""


@dataclass
class TrainingHistory:
    """Per-epoch record of one training run."""

    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)


def _make_optimizer(
    model: JointUserEventModel, config: TrainingConfig
) -> Optimizer:
    if config.optimizer == "adagrad":
        return Adagrad(model.store, learning_rate=config.learning_rate)
    return SGD(
        model.store,
        learning_rate=config.learning_rate,
        momentum=config.momentum,
    )


class RepresentationTrainer:
    """Fits a :class:`JointUserEventModel` on (user, event, label) pairs."""

    def __init__(self, model: JointUserEventModel, config: TrainingConfig):
        self.model = model
        self.config = config

    def fit(
        self,
        users: Sequence[EncodedUser],
        events: Sequence[EncodedEvent],
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
        on_epoch_end: EpochCallback | None = None,
    ) -> TrainingHistory:
        """Train on aligned pair sequences.

        The trailing ``validation_fraction`` of pairs is held out for
        early stopping — with time-ordered input this mirrors the
        paper's date-disjoint evaluation discipline.

        ``sample_weight`` enables weighted positives (e.g. clicks as
        weak feedback, the paper's future-work direction); validation
        loss stays unweighted so early stopping tracks the target task.

        ``on_epoch_end`` is called after every completed epoch with
        ``(epoch_index, stats)`` — the hook telemetry writers and
        progress UIs attach to; it observes but cannot alter training.

        Returns the :class:`TrainingHistory`; the model is left holding
        the best-validation parameters.
        """
        with span("repro_train_fit", buckets=_TRAIN_DURATION_BUCKETS):
            return self._fit(users, events, labels, sample_weight, on_epoch_end)

    def _fit(
        self,
        users: Sequence[EncodedUser],
        events: Sequence[EncodedEvent],
        labels: np.ndarray,
        sample_weight: np.ndarray | None,
        on_epoch_end: EpochCallback | None,
    ) -> TrainingHistory:
        if not len(users) == len(events) == len(labels):
            raise ValueError("users, events and labels must be aligned")
        if len(users) == 0:
            raise ValueError("cannot train on an empty pair set")
        labels = np.asarray(labels, dtype=np.float64)
        if sample_weight is not None:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
            if sample_weight.shape != labels.shape:
                raise ValueError("sample_weight must align with labels")

        num_validation = int(len(users) * self.config.validation_fraction)
        train_slice = slice(0, len(users) - num_validation)
        val_slice = slice(len(users) - num_validation, len(users))
        train_users = list(users[train_slice])
        train_events = list(events[train_slice])
        train_labels = labels[train_slice]
        train_weights = (
            sample_weight[train_slice] if sample_weight is not None else None
        )
        val_users = list(users[val_slice])
        val_events = list(events[val_slice])
        val_labels = labels[val_slice]

        optimizer = _make_optimizer(self.model, self.config)
        schedule = ExponentialDecay(self.config.learning_rate)
        rng = np.random.default_rng(self.config.seed)
        history = TrainingHistory()
        best_val = np.inf
        best_state: dict[str, np.ndarray] | None = None
        epochs_since_best = 0

        registry = get_registry()
        # Per-epoch shift detectors: the first epochs form the
        # reference, later epochs the live window.  Only the *upward*
        # mean-shift detector is armed — loss and gradient norms
        # falling is convergence, rising is divergence (or an
        # exploding update); PSI/KS are meaningless over a handful of
        # epoch scalars and stay disabled.
        shift_monitors: tuple[DriftMonitor, ...] = ()
        if registry.enabled:
            thresholds = DriftThresholds(
                psi=math.inf, ks=math.inf, mean_sigmas=3.0, var_ratio=math.inf
            )
            shift_monitors = tuple(
                DriftMonitor(
                    name,
                    warmup=3,
                    window=3,
                    bins=2,
                    min_live=2,
                    thresholds=thresholds,
                    direction="up",
                )
                for name in ("train_loss", "train_grad_norm")
            )
        event_lengths = np.array(
            [event.text_ids.shape[0] for event in train_events]
        )
        for epoch in range(self.config.epochs):
            epoch_start = time.perf_counter()
            rate = schedule.apply(optimizer, epoch)
            order = np.arange(len(train_users))
            rng.shuffle(order)
            # Sort each chunk of ~8 batches by event length.  Packed
            # batches hold no padding, so this buys no convolution
            # work; it is kept because it puts the pairs that show one
            # event together, where the event tower encodes it once
            # for all of them, and because the loss curves depend on
            # this pair order.  Chunk membership stays random across
            # epochs.
            chunk = self.config.batch_size * 8
            for start in range(0, len(order), chunk):
                segment = order[start : start + chunk]
                order[start : start + chunk] = segment[
                    np.argsort(event_lengths[segment], kind="stable")
                ]
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, len(order), self.config.batch_size):
                index = order[start : start + self.config.batch_size]
                batch_users = [train_users[i] for i in index]
                batch_events = [train_events[i] for i in index]
                batch_labels = train_labels[index]
                batch_weights = (
                    train_weights[index] if train_weights is not None else None
                )
                optimizer.zero_grad()
                loss = self.model.train_step(
                    batch_users,
                    batch_events,
                    batch_labels,
                    sample_weight=batch_weights,
                )
                optimizer.step()
                epoch_loss += loss
                num_batches += 1
            mean_train_loss = epoch_loss / max(num_batches, 1)
            # Gradients of the final batch are still in the store here;
            # their global norm is the cheapest useful health signal
            # (exploding/vanishing updates).  Only computed when
            # telemetry is on — it touches every parameter.
            grad_norm = (
                self._global_grad_norm() if registry.enabled else float("nan")
            )
            val_loss = (
                self.evaluate_loss(val_users, val_events, val_labels)
                if num_validation
                else mean_train_loss
            )
            epoch_seconds = time.perf_counter() - epoch_start
            history.train_losses.append(mean_train_loss)
            history.validation_losses.append(val_loss)
            history.learning_rates.append(rate)
            # Lands in repro_train_epoch_seconds and, when tracing, as
            # a per-epoch stage under the repro_train_fit span.
            record_stage(
                "repro_train_epoch",
                epoch_seconds,
                buckets=_TRAIN_DURATION_BUCKETS,
            )
            if registry.enabled:
                registry.gauge("repro_train_epoch_loss").set(mean_train_loss)
                registry.gauge("repro_train_val_loss").set(val_loss)
                registry.gauge("repro_train_learning_rate").set(rate)
                registry.gauge("repro_train_grad_norm").set(grad_norm)
                registry.counter("repro_train_epochs_total").inc()
                for monitor, value in zip(
                    shift_monitors, (mean_train_loss, grad_norm)
                ):
                    if not math.isfinite(value):
                        continue
                    monitor.observe(value)
                    monitor.export(registry)
                    result = monitor.result()
                    if result.drifted:
                        registry.counter(
                            "repro_train_drift_total",
                            tags={"signal": monitor.name},
                        ).inc()
                        _log.warning(
                            "train_shift",
                            signal=monitor.name,
                            epoch=epoch + 1,
                            mean_zscore=round(result.mean_zscore, 3),
                            value=round(value, 6),
                        )
            if on_epoch_end is not None:
                on_epoch_end(
                    epoch,
                    {
                        "epoch": epoch + 1,
                        "train_loss": mean_train_loss,
                        "val_loss": val_loss,
                        "learning_rate": rate,
                        "seconds": epoch_seconds,
                        "grad_norm": grad_norm,
                    },
                )
            if val_loss < best_val - 1.0e-6:
                best_val = val_loss
                history.best_epoch = epoch
                best_state = self.model.store.state_dict()
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best >= self.config.patience:
                    history.stopped_early = True
                    if registry.enabled:
                        registry.counter("repro_train_early_stop_total").inc()
                    break
        if best_state is not None:
            self.model.store.load_state_dict(best_state)
        return history

    def _global_grad_norm(self) -> float:
        """L2 norm over every trainable parameter's current gradient."""
        total = 0.0
        for parameter in self.model.store.trainable():
            grad = parameter.grad
            if grad is not None:
                total += float((grad * grad).sum())
        return float(np.sqrt(total))

    def evaluate_loss(
        self,
        users: Sequence[EncodedUser],
        events: Sequence[EncodedEvent],
        labels: np.ndarray,
        batch_size: int = 256,
    ) -> float:
        """Mean Equation-1 loss over a pair set, without training."""
        if len(users) == 0:
            return 0.0
        total = 0.0
        for start in range(0, len(users), batch_size):
            stop = start + batch_size
            sim = self.model.similarity(users[start:stop], events[start:stop])
            loss, _ = contrastive_loss(
                sim,
                np.asarray(labels[start:stop], dtype=np.float64),
                margin=self.model.config.margin,
            )
            total += loss * len(sim)
        return total / len(users)
