"""QBI attack: sole-activation optimum, crafting, inversion, defense impact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    ImprintedModel,
    QBIAttack,
    activation_matrix,
)
from repro.defense import OasisDefense
from repro.fl import compute_batch_gradients
from repro.metrics import per_image_best_psnr
from repro.nn import CrossEntropyLoss


@pytest.fixture
def crafted(cifar_like):
    num_neurons = 256
    model = ImprintedModel(
        cifar_like.image_shape, num_neurons, cifar_like.num_classes,
        rng=np.random.default_rng(11),
    )
    attack = QBIAttack(num_neurons, expected_batch_size=8, seed=7)
    attack.calibrate_from_public_data(cifar_like.images[:100])
    attack.craft(model)
    return model, attack


class TestTuning:
    def test_activation_probability_is_inverse_batch_size(self):
        for batch_size in (2, 4, 8, 16):
            attack = QBIAttack(16, expected_batch_size=batch_size)
            assert attack.activation_probability == pytest.approx(1.0 / batch_size)

    def test_inverse_batch_size_maximizes_sole_activation(self):
        # p* = 1/B is the argmax of P(sole) = B * p * (1-p)^(B-1).
        def sole_activation_probability(p, batch_size):
            return batch_size * p * (1.0 - p) ** (batch_size - 1)

        for batch_size in (2, 4, 8):
            optimum = sole_activation_probability(1.0 / batch_size, batch_size)
            grid = np.linspace(0.01, 0.99, 197)
            values = [sole_activation_probability(p, batch_size) for p in grid]
            assert optimum >= max(values) - 1e-12

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            QBIAttack(16, expected_batch_size=0)

    def test_batch_size_one_does_not_degenerate_to_certainty(self):
        # p is capped at 0.5 so the near-total-activation guard never
        # discards the (all-verbatim) single-sample reconstructions.
        attack = QBIAttack(16, expected_batch_size=1)
        assert attack.activation_probability == pytest.approx(0.5)

    def test_batch_size_one_reconstructs_the_sample(self, cifar_like):
        # Regression: B=1 used to set p=0.99, so every trap fired and the
        # near-total-activation guard returned an empty result even
        # though each fired trap held the single sample verbatim.
        attack = QBIAttack(64, expected_batch_size=1, seed=3)
        attack.calibrate_from_public_data(cifar_like.images[:64])
        model = ImprintedModel(
            cifar_like.image_shape, 64, cifar_like.num_classes,
            rng=np.random.default_rng(2),
        )
        attack.craft(model)
        images, labels = cifar_like.sample_batch(1, np.random.default_rng(8))
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        result = attack.reconstruct(grads)
        assert len(result) >= 1, result.reason
        assert per_image_best_psnr(images, result.images).max() > 100.0

    def test_empirical_rate_close_to_target(self, crafted, cifar_like):
        model, attack = crafted
        weight, bias = model.imprint_parameters()
        flat = cifar_like.images.reshape(len(cifar_like), -1).astype(np.float64)
        rate = activation_matrix(weight, bias, flat).mean()
        assert rate == pytest.approx(attack.activation_probability, abs=0.04)

    def test_seed_determinism(self, cifar_like):
        crafted = []
        for _ in range(2):
            model = ImprintedModel(cifar_like.image_shape, 32, 10,
                                   rng=np.random.default_rng(0))
            attack = QBIAttack(32, expected_batch_size=4, seed=5)
            attack.calibrate_from_public_data(cifar_like.images[:50])
            attack.craft(model)
            crafted.append(model.imprint_parameters())
        np.testing.assert_array_equal(crafted[0][0], crafted[1][0])
        np.testing.assert_array_equal(crafted[0][1], crafted[1][1])


class TestReconstruction:
    def test_recovers_undefended_batch(self, crafted, cifar_like, rng):
        # Acceptance shape: >= 1 image above 18 dB on an undefended
        # 8-image batch (in practice every image is recovered verbatim).
        model, attack = crafted
        images, labels = cifar_like.sample_batch(8, rng)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        result = attack.reconstruct(grads)
        best = per_image_best_psnr(images, result.images)
        assert (best > 18.0).sum() >= 1
        assert best.max() > 100.0  # at least one verbatim extraction

    def test_oasis_mr_sh_drops_match_rate(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(8, rng)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        undefended = per_image_best_psnr(images, attack.reconstruct(grads).images)
        expanded, expanded_labels = OasisDefense("MR+SH").expand_batch(
            images, labels
        )
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), expanded, expanded_labels
        )
        defended_result = attack.reconstruct(grads)
        defended = (
            per_image_best_psnr(images, defended_result.images)
            if len(defended_result)
            else np.zeros(len(images))
        )
        assert (defended > 18.0).sum() < (undefended > 18.0).sum()

    def test_no_signal_returns_reasoned_empty(self, crafted):
        model, attack = crafted
        zeros = {
            "imprint.weight": np.zeros(model.imprint.weight.shape),
            "imprint.bias": np.zeros(model.imprint.bias.shape),
        }
        result = attack.reconstruct(zeros)
        assert len(result) == 0
        assert result.reason is not None

    def test_occupancy_reports_bias_gradient_mass(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        result = attack.reconstruct(grads)
        assert result.occupancy is not None
        np.testing.assert_allclose(
            result.occupancy, grads["imprint.bias"][result.neuron_indices]
        )

    def test_reconstruct_before_craft_raises(self):
        with pytest.raises(RuntimeError):
            QBIAttack(4).reconstruct(
                {"imprint.weight": np.zeros((4, 2)), "imprint.bias": np.zeros(4)}
            )
