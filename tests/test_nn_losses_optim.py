"""The cross-entropy loss and the optimizers (SGD, Adam)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CrossEntropyLoss,
    Linear,
    Parameter,
    SGD,
)
from repro.tensor import Tensor
from repro.tensor.fused import one_hot


class TestOneHot:
    def test_encoding(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_shape(self):
        assert one_hot(np.arange(5), 7).shape == (5, 7)


class TestCrossEntropy:
    def test_matches_manual_softmax_ce(self, rng):
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        loss = CrossEntropyLoss()(Tensor(logits), labels).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), labels].mean()
        assert np.isclose(loss, expected, atol=1e-12)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss = CrossEntropyLoss()(Tensor(logits), np.array([0, 1])).item()
        assert loss < 1e-10

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = rng.standard_normal((3, 5))
        labels = np.array([1, 0, 4])
        t = Tensor(logits, requires_grad=True)
        CrossEntropyLoss()(t, labels).backward()
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        expected = (probs - one_hot(labels, 5)) / 3
        np.testing.assert_allclose(t.grad, expected, atol=1e-10)


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95])

    def test_weight_decay(self):
        p = Parameter(np.array([2.0]))
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-1.0])
        p.grad = np.array([1.0])
        opt.step()  # velocity = 0.9 * 1 + 1 = 1.9
        np.testing.assert_allclose(p.data, [-2.9])

    def test_skips_gradless_params(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_equals_lr_sign(self):
        # With bias correction, the first Adam step is ~lr * sign(grad).
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([3.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            p.grad = 2.0 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay_pulls_to_zero(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.05, weight_decay=1.0)
        for _ in range(100):
            p.grad = np.zeros(1)
            opt.step()
        assert abs(p.data[0]) < 0.5

    def test_trains_linear_regression(self, rng):
        true_w = rng.standard_normal((3,))
        x = rng.standard_normal((64, 3))
        y = x @ true_w
        layer = Linear(3, 1, rng=np.random.default_rng(0))
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            diff = layer(Tensor(x)).reshape(-1) - Tensor(y)
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data.ravel(), true_w, atol=0.05)
