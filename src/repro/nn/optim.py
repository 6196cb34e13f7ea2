"""Optimizers and learning-rate schedules.

The paper trains with back-propagation and decays the learning rate to
90% of its value after each epoch (Section 3.2.1).  :class:`SGD` (with
optional momentum) is the paper's optimizer; :class:`Adagrad` is the
default because per-parameter scaling noticeably helps the sparse
lookup-table gradients at small data scales.  Both clip each
parameter's gradient to a fixed norm.
"""

from __future__ import annotations

import numpy as np

from repro.nn.params import ParamStore

__all__ = ["Optimizer", "SGD", "Adagrad", "ExponentialDecay"]

_MAX_GRAD_NORM = 5.0
_ADAGRAD_EPS = 1.0e-8
_LR_DECAY = 0.9  # paper: the rate falls to 90% after each epoch


class Optimizer:
    """Base class: owns a param store and a current learning rate."""

    def __init__(self, store: ParamStore, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        self.store = store
        self.learning_rate = learning_rate

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.store.zero_grad()


def _clip_norm(grad: np.ndarray) -> np.ndarray:
    norm = float(np.sqrt((grad * grad).sum()))
    if norm > _MAX_GRAD_NORM:
        return grad * (_MAX_GRAD_NORM / norm)
    return grad


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self, store: ParamStore, learning_rate: float, momentum: float = 0.0
    ):
        super().__init__(store, learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = {
            param.name: np.zeros_like(param.value)
            for param in store.trainable()
        }

    def step(self) -> None:
        for param in self.store.trainable():
            grad = _clip_norm(param.grad)
            if self.momentum:
                velocity = self._velocity[param.name]
                velocity *= self.momentum
                velocity -= self.learning_rate * grad
                param.value += velocity
            else:
                param.value -= self.learning_rate * grad


class Adagrad(Optimizer):
    """Adagrad: per-weight adaptive step sizes.

    Well suited to the lookup tables, where most rows receive gradient
    only on the few batches containing their token.
    """

    def __init__(self, store: ParamStore, learning_rate: float):
        super().__init__(store, learning_rate)
        self._accum = {
            param.name: np.zeros_like(param.value)
            for param in store.trainable()
        }

    def step(self) -> None:
        for param in self.store.trainable():
            grad = _clip_norm(param.grad)
            accum = self._accum[param.name]
            accum += grad * grad
            param.value -= self.learning_rate * grad / (np.sqrt(accum) + _ADAGRAD_EPS)


class ExponentialDecay:
    """Per-epoch learning-rate decay (paper: ×0.9 each epoch)."""

    def __init__(self, initial_rate: float):
        self.initial_rate = initial_rate

    def rate_at(self, epoch: int) -> float:
        """Learning rate for the given zero-based epoch index."""
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        return self.initial_rate * _LR_DECAY**epoch

    def apply(self, optimizer: Optimizer, epoch: int) -> float:
        rate = self.rate_at(epoch)
        optimizer.learning_rate = rate
        return rate
