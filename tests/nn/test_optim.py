"""Optimizers and learning-rate schedules."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adagrad, ExponentialDecay
from repro.nn.params import ParamStore


def _store_with_param(value, trainable=True):
    store = ParamStore()
    param = store.create("w", np.asarray(value, dtype=np.float64), trainable)
    return store, param


class TestSGD:
    def test_plain_step(self):
        store, param = _store_with_param([1.0, 2.0])
        param.grad[...] = [0.5, -0.5]
        SGD(store, learning_rate=0.1).step()
        assert np.allclose(param.value, [0.95, 2.05])

    def test_momentum_accumulates(self):
        store, param = _store_with_param([0.0])
        optimizer = SGD(store, learning_rate=1.0, momentum=0.5)
        param.grad[...] = [1.0]
        optimizer.step()  # v = -1, w = -1
        param.grad[...] = [1.0]
        optimizer.step()  # v = -1.5, w = -2.5
        assert np.allclose(param.value, [-2.5])

    def test_gradient_clipping(self):
        store, param = _store_with_param([0.0, 0.0])
        param.grad[...] = [30.0, 40.0]  # norm 50
        SGD(store, learning_rate=1.0).step()
        # Clipped to norm 5: direction (0.6, 0.8) × 5.
        assert np.allclose(param.value, [-3.0, -4.0])

    def test_non_trainable_untouched(self):
        store, param = _store_with_param([1.0], trainable=False)
        param.grad[...] = [100.0]
        SGD(store, learning_rate=1.0).step()
        assert np.allclose(param.value, [1.0])

    def test_rejects_bad_hyperparams(self):
        store, _ = _store_with_param([1.0])
        with pytest.raises(ValueError, match="learning rate"):
            SGD(store, learning_rate=0.0)
        with pytest.raises(ValueError, match="momentum"):
            SGD(store, learning_rate=0.1, momentum=1.0)


class TestAdagrad:
    def test_first_step_is_full_rate(self):
        store, param = _store_with_param([0.0])
        param.grad[...] = [2.0]
        Adagrad(store, learning_rate=0.1).step()
        # accum = 4, step = 0.1 * 2 / 2 = 0.1
        assert np.allclose(param.value, [-0.1], atol=1e-6)

    def test_steps_shrink_with_accumulation(self):
        store, param = _store_with_param([0.0])
        optimizer = Adagrad(store, learning_rate=0.1)
        previous = 0.0
        deltas = []
        for _ in range(3):
            param.grad[...] = [1.0]
            optimizer.step()
            deltas.append(abs(param.value[0] - previous))
            previous = param.value[0]
            param.zero_grad()
        assert deltas[0] > deltas[1] > deltas[2]

    def test_per_coordinate_adaptation(self):
        store, param = _store_with_param([0.0, 0.0])
        optimizer = Adagrad(store, learning_rate=0.1)
        param.grad[...] = [10.0, 0.0]
        optimizer.step()
        param.grad[...] = [1.0, 1.0]
        optimizer.step()
        # Coordinate 0 has larger accumulated history → smaller step.
        step0 = abs(param.value[0] - (-0.1))
        step1 = abs(param.value[1])
        assert step0 < step1


class TestExponentialDecay:
    def test_rate_sequence(self):
        schedule = ExponentialDecay(1.0)
        assert schedule.rate_at(0) == 1.0
        assert np.isclose(schedule.rate_at(1), 0.9)
        assert np.isclose(schedule.rate_at(10), 0.9**10)

    def test_apply_mutates_optimizer(self):
        store, _ = _store_with_param([0.0])
        optimizer = SGD(store, learning_rate=1.0)
        ExponentialDecay(1.0).apply(optimizer, 2)
        assert np.isclose(optimizer.learning_rate, 0.81)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="epoch"):
            ExponentialDecay(1.0).rate_at(-1)
