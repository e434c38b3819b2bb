"""Tests of the paper's Sec. III-A attack principle (Eq. 6, Proposition 1).

These tests verify the *mathematical identities* the whole paper rests on,
to float precision, on our autograd engine:

1. Single-input Eq. 6: for a ReLU-gated linear layer updated on one sample,
   (dL/db_i)^(-1) dL/dW_i == x exactly, for any activated neuron i.
2. Batch summation: gradients of a batch are the sum of per-sample
   gradients, so a neuron activated by exactly one sample leaks it.
3. Mixtures: a neuron activated by several samples yields a convex-like
   combination, with coefficients proportional to each sample's dL/db_i.
4. Proposition 1's premise and conclusion on a crafted malicious layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    ImprintedModel,
    activation_matrix,
    extract_imprint_gradients,
)
from repro.fl import compute_batch_gradients
from repro.nn import CrossEntropyLoss
from repro.tensor import Tensor


@pytest.fixture
def setup(rng):
    model = ImprintedModel((3, 8, 8), num_neurons=24, num_classes=5, rng=rng)
    loss_fn = CrossEntropyLoss()
    return model, loss_fn


def _grads_for(model, loss_fn, images, labels):
    grads, _ = compute_batch_gradients(model, loss_fn, images, labels)
    return extract_imprint_gradients(grads)


class TestEquation6:
    def test_single_input_perfect_inversion(self, setup, rng):
        model, loss_fn = setup
        x = rng.random((1, 3, 8, 8))
        weight_grad, bias_grad = _grads_for(model, loss_fn, x, np.array([2]))
        flat = x.reshape(-1)
        active = np.flatnonzero(np.abs(bias_grad) > 1e-12)
        assert active.size > 0, "at least one neuron must fire"
        for i in active:
            recovered = weight_grad[i] / bias_grad[i]
            np.testing.assert_allclose(recovered, flat, atol=1e-9)

    def test_inversion_invariant_to_loss_scale(self, setup, rng):
        # Eq. 6 divides two gradients sharing the loss scale, so scaling
        # the loss must give the same reconstruction.
        model, loss_fn = setup
        x = rng.random((1, 3, 8, 8))
        w_mean, b_mean = _grads_for(model, loss_fn, x, np.array([0]))
        model.zero_grad()
        (loss_fn(model(Tensor(x)), np.array([0])) * 3.0).backward()
        w_scaled, b_scaled = extract_imprint_gradients(model.grad_dict())
        i = int(np.argmax(np.abs(b_mean)))
        r1 = w_mean[i] / b_mean[i]
        r2 = w_scaled[i] / b_scaled[i]
        np.testing.assert_allclose(r1, r2, atol=1e-9)


class TestBatchSummation:
    def test_batch_gradient_is_sum_of_per_sample(self, setup, rng):
        model, loss_fn = setup
        images = rng.random((4, 3, 8, 8))
        labels = np.array([0, 1, 2, 3])
        w_batch, b_batch = _grads_for(model, loss_fn, images, labels)
        w_acc = np.zeros_like(w_batch)
        b_acc = np.zeros_like(b_batch)
        for i in range(4):
            w_i, b_i = _grads_for(
                model, loss_fn, images[i : i + 1], labels[i : i + 1]
            )
            w_acc += w_i
            b_acc += b_i
        # The mean loss scales the per-sample sum by 1/B.
        np.testing.assert_allclose(4 * w_batch, w_acc, atol=1e-10)
        np.testing.assert_allclose(4 * b_batch, b_acc, atol=1e-10)

    def test_solely_activating_sample_leaks_verbatim(self, rng):
        # Craft a layer where neuron 0 fires only for sample 0.
        model = ImprintedModel((1, 4, 4), num_neurons=2, num_classes=3, rng=rng)
        images = np.stack(
            [np.full((1, 4, 4), 0.9), np.full((1, 4, 4), 0.1)]
        ) + rng.random((2, 1, 4, 4)) * 0.01
        d = 16
        weight = np.tile(np.full(d, 1.0 / d), (2, 1))
        bias = np.array([-0.5, -2.0])  # neuron 0: only bright sample; 1: none
        model.set_imprint_parameters(weight, bias)
        w_grad, b_grad = _grads_for(
            model, CrossEntropyLoss(), images, np.array([0, 1])
        )
        recovered = w_grad[0] / b_grad[0]
        np.testing.assert_allclose(recovered, images[0].reshape(-1), atol=1e-9)

    def test_shared_neuron_yields_linear_combination(self, rng):
        model = ImprintedModel((1, 4, 4), num_neurons=1, num_classes=3, rng=rng)
        images = rng.random((2, 1, 4, 4)) + 0.5  # both bright: both activate
        weight = np.full((1, 16), 1.0 / 16)
        bias = np.array([-0.1])
        model.set_imprint_parameters(weight, bias)
        w_grad, b_grad = _grads_for(
            model, CrossEntropyLoss(), images, np.array([0, 1])
        )
        mixture = w_grad[0] / b_grad[0]
        # The mixture must lie in the span of the two flattened inputs.
        basis = images.reshape(2, -1)
        coeffs, residual, *_ = np.linalg.lstsq(basis.T, mixture, rcond=None)
        reconstructed = basis.T @ coeffs
        np.testing.assert_allclose(reconstructed, mixture, atol=1e-8)
        # And not equal to either input alone.
        assert not np.allclose(mixture, basis[0], atol=1e-3)
        assert not np.allclose(mixture, basis[1], atol=1e-3)

    def test_mixture_coefficients_proportional_to_bias_grads(self, rng):
        model = ImprintedModel((1, 3, 3), num_neurons=1, num_classes=2, rng=rng)
        images = rng.random((2, 1, 3, 3)) + 0.5
        model.set_imprint_parameters(np.full((1, 9), 1.0 / 9), np.array([-0.1]))
        loss_fn = CrossEntropyLoss()
        w_grad, b_grad = _grads_for(model, loss_fn, images, np.array([0, 1]))
        # Per-sample bias gradients:
        b_parts = []
        for i in range(2):
            _, b_i = _grads_for(model, loss_fn, images[i : i + 1], np.array([i]))
            b_parts.append(b_i[0])
        mixture = w_grad[0] / b_grad[0]
        expected = (
            b_parts[0] * images[0].reshape(-1) + b_parts[1] * images[1].reshape(-1)
        ) / (b_parts[0] + b_parts[1])
        np.testing.assert_allclose(mixture, expected, atol=1e-9)


class TestProposition1:
    def test_identical_activation_sets_block_extraction(self, rng):
        """If x and x' activate the same neurons, no neuron isolates x."""
        model = ImprintedModel((1, 4, 4), num_neurons=8, num_classes=2, rng=rng)
        x = rng.random((1, 4, 4))
        x_prime = x[:, ::-1, :].copy()  # vertical flip: same mean
        weight = np.tile(np.full(16, 1.0 / 16), (8, 1))
        bias = -np.linspace(0.1, 0.9, 8)
        model.set_imprint_parameters(weight, bias)
        batch = np.stack([x, x_prime])
        flat = batch.reshape(2, -1)
        acts = activation_matrix(weight, bias, flat)
        np.testing.assert_array_equal(acts[0], acts[1])
        # No neuron is activated by exactly one of them:
        counts = acts.sum(axis=0)
        assert not np.any(counts == 1)

    def test_activation_matrix_matches_forward_relu(self, setup, rng):
        model, _ = setup
        images = rng.random((3, 3, 8, 8))
        weight, bias = model.imprint_parameters()
        flat = images.reshape(3, -1)
        acts = activation_matrix(weight, bias, flat)
        manual = (flat @ weight.T + bias) > 0
        np.testing.assert_array_equal(acts, manual)


class TestImprintedModel:
    def test_rejects_bad_weight_shape(self, setup):
        model, _ = setup
        with pytest.raises(ValueError):
            model.set_imprint_parameters(np.zeros((3, 3)), np.zeros(24))

    def test_rejects_bad_bias_shape(self, setup):
        model, _ = setup
        with pytest.raises(ValueError):
            model.set_imprint_parameters(np.zeros((24, 192)), np.zeros(3))

    def test_forward_shape(self, setup, rng):
        model, _ = setup
        out = model(__import__("repro.tensor", fromlist=["Tensor"]).Tensor(rng.random((2, 3, 8, 8))))
        assert out.shape == (2, 5)

    def test_decoder_columns_identical(self, setup):
        # The pass-through property: every attacked neuron feeds downstream
        # identically, giving equal backprop coefficients (RTF requirement).
        model, _ = setup
        decoder = model.decoder.weight.data  # (flat_dim, num_neurons)
        first = decoder[:, 0]
        for i in range(1, decoder.shape[1]):
            np.testing.assert_allclose(decoder[:, i], first)

    def test_extract_missing_keys_raises(self):
        with pytest.raises(KeyError):
            extract_imprint_gradients({"other.weight": np.zeros(1)})
