"""Convolution/pooling/batch-norm gradient checks against finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    batch_norm,
    conv2d,
    global_avg_pool2d,
    max_pool2d,
)
from gradcheck import numerical_gradient


@pytest.fixture
def conv_setup(rng):
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.3
    b = rng.standard_normal(4) * 0.1
    return x, w, b


class TestConv2d:
    def test_output_shape(self, conv_setup):
        x, w, b = conv_setup
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)
        assert out.shape == (2, 4, 6, 6)

    def test_stride_shape(self, conv_setup):
        x, w, b = conv_setup
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
        assert out.shape == (2, 4, 3, 3)

    def test_no_bias(self, conv_setup):
        x, w, _ = conv_setup
        out = conv2d(Tensor(x), Tensor(w), None, padding=1)
        assert out.shape == (2, 4, 6, 6)

    def test_matches_direct_convolution(self, rng):
        # Compare against an explicit loop implementation on a tiny case.
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 2, 2))
        out = conv2d(Tensor(x), Tensor(w), None).numpy()
        expected = np.zeros((1, 3, 3, 3))
        for o in range(3):
            for i in range(3):
                for j in range(3):
                    expected[0, o, i, j] = np.sum(
                        x[0, :, i : i + 2, j : j + 2] * w[o]
                    )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_input_gradient(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.2)

        def loss_of(data):
            return (conv2d(Tensor(data), w, None, padding=1) ** 2).sum().item()

        t = Tensor(x.copy(), requires_grad=True)
        (conv2d(t, w, None, padding=1) ** 2).sum().backward()
        numeric = numerical_gradient(loss_of, x.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=1e-4)

    def test_weight_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        w0 = rng.standard_normal((2, 2, 3, 3)) * 0.2

        def loss_of(wdata):
            return (conv2d(x, Tensor(wdata), None) ** 2).sum().item()

        w = Tensor(w0.copy(), requires_grad=True)
        (conv2d(x, w, None) ** 2).sum().backward()
        numeric = numerical_gradient(loss_of, w0.copy())
        np.testing.assert_allclose(w.grad, numeric, atol=1e-4)

    def test_bias_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.2)
        b0 = rng.standard_normal(2) * 0.1

        def loss_of(bdata):
            return (conv2d(x, w, Tensor(bdata)) ** 2).sum().item()

        b = Tensor(b0.copy(), requires_grad=True)
        (conv2d(x, w, b) ** 2).sum().backward()
        numeric = numerical_gradient(loss_of, b0.copy())
        np.testing.assert_allclose(b.grad, numeric, atol=1e-5)


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2).numpy()
        np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_grad(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        max_pool2d(t, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(t.grad[0, 0], expected)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = global_avg_pool2d(Tensor(x)).numpy()
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))

    def test_max_pool_numeric_grad(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))

        def loss_of(data):
            return (max_pool2d(Tensor(data), 2) ** 2).sum().item()

        t = Tensor(x.copy(), requires_grad=True)
        (max_pool2d(t, 2) ** 2).sum().backward()
        numeric = numerical_gradient(loss_of, x.copy())
        np.testing.assert_allclose(t.grad, numeric, atol=1e-4)


class TestBatchNorm:
    def _run(self, x, training, rng=None, gamma=None, beta=None):
        c = x.shape[1]
        gamma = gamma if gamma is not None else Tensor(np.ones(c), requires_grad=True)
        beta = beta if beta is not None else Tensor(np.zeros(c), requires_grad=True)
        running_mean = np.zeros(c)
        running_var = np.ones(c)
        out = batch_norm(x, gamma, beta, running_mean, running_var, training)
        return out, gamma, beta, running_mean, running_var

    def test_training_normalizes(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 4, 4)) * 5.0 + 2.0)
        out, *_ = self._run(x, training=True)
        data = out.numpy()
        np.testing.assert_allclose(data.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self, rng):
        x = Tensor(rng.standard_normal((16, 2, 3, 3)) + 4.0)
        _, _, _, running_mean, running_var = self._run(x, training=True)
        assert np.all(running_mean > 0.0)  # moved toward the batch mean of ~4

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)))
        gamma = Tensor(np.ones(2), requires_grad=True)
        beta = Tensor(np.zeros(2), requires_grad=True)
        running_mean = np.full(2, 1.0)
        running_var = np.full(2, 4.0)
        out = batch_norm(x, gamma, beta, running_mean, running_var, training=False)
        np.testing.assert_allclose(
            out.numpy(), (x.numpy() - 1.0) / np.sqrt(4.0 + 1e-5), atol=1e-10
        )

    def test_input_gradient_training(self, rng):
        x0 = rng.standard_normal((4, 2, 3, 3))
        gamma = Tensor(rng.standard_normal(2) + 1.0, requires_grad=False)
        beta = Tensor(rng.standard_normal(2), requires_grad=False)
        target = rng.standard_normal((4, 2, 3, 3))

        def loss_of(data):
            out = batch_norm(
                Tensor(data), gamma, beta, np.zeros(2), np.ones(2), training=True
            )
            return ((out - Tensor(target)) ** 2).sum().item()

        t = Tensor(x0.copy(), requires_grad=True)
        out = batch_norm(t, gamma, beta, np.zeros(2), np.ones(2), training=True)
        ((out - Tensor(target)) ** 2).sum().backward()
        numeric = numerical_gradient(loss_of, x0.copy(), epsilon=1e-5)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-4)

    def test_gamma_beta_gradients(self, rng):
        x = Tensor(rng.standard_normal((4, 2, 3, 3)))
        g0 = rng.standard_normal(2) + 1.0
        b0 = rng.standard_normal(2)

        def loss_of_gamma(g):
            out = batch_norm(
                x, Tensor(g), Tensor(b0), np.zeros(2), np.ones(2), training=True
            )
            return (out ** 2).sum().item()

        gamma = Tensor(g0.copy(), requires_grad=True)
        beta = Tensor(b0.copy(), requires_grad=True)
        out = batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
        (out ** 2).sum().backward()
        numeric = numerical_gradient(loss_of_gamma, g0.copy(), epsilon=1e-5)
        np.testing.assert_allclose(gamma.grad, numeric, atol=1e-4)

    def test_2d_input_supported(self, rng):
        x = Tensor(rng.standard_normal((10, 3)))
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        out = batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
        np.testing.assert_allclose(out.numpy().mean(axis=0), 0.0, atol=1e-10)
