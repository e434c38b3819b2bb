"""Robbing-the-Fed attack: bins, crafting, reconstruction, defense impact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ImprintedModel, RTFAttack
from repro.defense import OasisDefense
from repro.fl import compute_batch_gradients
from repro.metrics import PSNR_CEILING, average_attack_psnr, per_image_best_psnr
from repro.nn import CrossEntropyLoss


@pytest.fixture
def crafted(cifar_like, rng):
    num_neurons = 200
    model = ImprintedModel(
        cifar_like.image_shape, num_neurons, cifar_like.num_classes,
        rng=np.random.default_rng(11),
    )
    attack = RTFAttack(num_neurons)
    attack.calibrate_from_public_data(cifar_like.images[:100])
    attack.craft(model)
    return model, attack


class TestCrafting:
    def test_needs_two_neurons(self):
        with pytest.raises(ValueError):
            RTFAttack(1)

    def test_neuron_count_must_match_model(self, cifar_like, rng):
        model = ImprintedModel(cifar_like.image_shape, 64, 10, rng=rng)
        with pytest.raises(ValueError):
            RTFAttack(65).craft(model)

    def test_weight_rows_all_equal_measurement(self, crafted):
        model, attack = crafted
        weight, _ = model.imprint_parameters()
        np.testing.assert_allclose(weight, np.tile(weight[0], (len(weight), 1)))
        # Measurement = mean pixel: each row sums to `scale`.
        assert weight[0].sum() == pytest.approx(attack.scale)

    def test_biases_strictly_decreasing(self, crafted):
        # b_i = -q_i with q ascending.
        _, bias = crafted[0].imprint_parameters()
        assert np.all(np.diff(bias) < 0)

    def test_bin_edges_sorted_and_centered(self, crafted):
        _, attack = crafted
        edges = attack.bin_edges()
        assert np.all(np.diff(edges) > 0)
        assert edges[0] < attack.measurement_mean < edges[-1]

    def test_calibration_from_public_data(self, cifar_like):
        attack = RTFAttack(10)
        attack.calibrate_from_public_data(cifar_like.images)
        means = cifar_like.images.reshape(len(cifar_like), -1).mean(axis=1)
        assert attack.measurement_mean == pytest.approx(means.mean())
        assert attack.measurement_std == pytest.approx(means.std(), rel=1e-6)

    def test_reconstruct_before_craft_raises(self):
        with pytest.raises(RuntimeError):
            RTFAttack(4).reconstruct({"imprint.weight": np.zeros((4, 2)),
                                      "imprint.bias": np.zeros(4)})


class TestReconstruction:
    def test_lone_bin_samples_reconstructed_perfectly(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = attack.reconstruct(grads)
        per_image = per_image_best_psnr(images, result.images)
        # With 4 samples and 200 bins every sample should be alone in a bin.
        assert np.all(per_image == pytest.approx(PSNR_CEILING))

    def test_average_psnr_perfect_small_batch(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = attack.reconstruct(grads)
        assert average_attack_psnr(images, result.images) > 120.0

    def test_bin_of_matches_quantile_search(self, crafted, cifar_like, rng):
        _, attack = crafted
        images, _ = cifar_like.sample_batch(4, rng)
        bins = attack.bin_of(images)
        flat = images.reshape(4, -1)
        for i in range(4):
            measurement = flat[i].mean()
            expected_bin = int(np.searchsorted(attack.bin_edges(), measurement)) - 1
            assert bins[i] == expected_bin

    def test_activated_prefix_length_matches_bin(self, crafted, cifar_like, rng):
        # A sample in bin k activates exactly the neurons with q_i below its
        # measurement, i.e. the first k+1 of them.
        model, attack = crafted
        images, _ = cifar_like.sample_batch(4, rng)
        weight, bias = model.imprint_parameters()
        flat = images.reshape(4, -1)
        activations = ((flat @ weight.T + bias) > 0).sum(axis=1)
        bins = attack.bin_of(images)
        np.testing.assert_array_equal(activations, bins + 1)

    def test_no_signal_returns_empty(self, crafted):
        model, attack = crafted
        zero_grads = {
            "imprint.weight": np.zeros(model.imprint.weight.shape),
            "imprint.bias": np.zeros(model.imprint.bias.shape),
        }
        result = attack.reconstruct(zero_grads)
        assert len(result) == 0
        assert result.reason == "no occupied measurement bin"

    def test_occupancy_reports_raw_bin_mass(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = attack.reconstruct(grads)
        bias_grad = grads["imprint.bias"]
        bias_diff = bias_grad[:-1] - bias_grad[1:]
        assert result.occupancy is not None
        np.testing.assert_allclose(
            result.occupancy, bias_diff[result.neuron_indices]
        )

    def test_near_empty_bin_amplification_is_clamped(self, cifar_like):
        # Regression: a bin whose bias-gradient difference sits barely
        # above signal_tolerance used to divide by it directly, amplifying
        # gradient noise by up to 1/tolerance into garbage pixels.  With a
        # denominator floor the amplification is bounded at 1/floor in
        # BOTH the clipped-images and raw paths, and occupancy still
        # reports the raw (unclamped) bin mass.
        floor = 1e-3
        attack = RTFAttack(4, signal_tolerance=1e-10, denominator_floor=floor)
        model = ImprintedModel(cifar_like.image_shape, 4, 10,
                               rng=np.random.default_rng(0))
        attack.craft(model)
        d = model.flat_dim
        noise = np.full((4, d), 1e-6)
        weak = 1e-8  # above tolerance, below the floor
        grads = {
            "imprint.weight": np.cumsum(noise[::-1], axis=0)[::-1].copy(),
            "imprint.bias": np.array([3 * weak, 2 * weak, weak, 0.0]),
        }
        result = attack.reconstruct(grads)
        assert len(result) == 3
        np.testing.assert_allclose(result.occupancy, [weak, weak, weak])
        # Unclamped, each raw pixel would be 1e-6 / 1e-8 = 100; clamped it
        # is 1e-6 / 1e-3 = 1e-3 — in range, no longer garbage.
        assert np.abs(result.raw).max() <= 1e-6 / floor + 1e-12
        np.testing.assert_allclose(
            result.images.reshape(3, -1), result.raw.clip(0.0, 1.0)
        )

    def test_denominator_floor_below_tolerance_refused(self):
        with pytest.raises(ValueError):
            RTFAttack(4, signal_tolerance=1e-6, denominator_floor=1e-9)

    def test_default_floor_keeps_healthy_bins_exact(self, crafted, cifar_like, rng):
        # The default floor equals signal_tolerance, so every occupied bin
        # divides by its true denominator — no numeric drift on the
        # well-conditioned path.
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = attack.reconstruct(grads)
        bias_grad = grads["imprint.bias"]
        weight_grad = grads["imprint.weight"]
        bias_diff = bias_grad[:-1] - bias_grad[1:]
        weight_diff = weight_grad[:-1] - weight_grad[1:]
        expected = (
            weight_diff[result.neuron_indices]
            / bias_diff[result.neuron_indices, None]
        )
        np.testing.assert_array_equal(result.raw, expected)

    def test_reconstructions_clipped_to_unit_range(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = attack.reconstruct(grads)
        assert result.images.min() >= 0.0
        assert result.images.max() <= 1.0


class TestAgainstOasis:
    def test_major_rotation_forces_same_bin(self, crafted, cifar_like, rng):
        _, attack = crafted
        images, _ = cifar_like.sample_batch(4, rng)
        defense = OasisDefense("MR")
        expanded, _ = defense.expand_batch(images, np.zeros(4, dtype=np.int64))
        bins = attack.bin_of(expanded)
        for t in range(4):
            for companion in defense.companions_of(t, 4):
                assert bins[companion] == bins[t], (
                    "a major rotation landed in a different RTF bin"
                )

    def test_oasis_mr_blocks_perfect_reconstruction(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        expanded, expanded_labels = OasisDefense("MR").expand_batch(images, labels)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), expanded, expanded_labels
        )
        result = attack.reconstruct(grads)
        per_image = per_image_best_psnr(images, result.images)
        assert np.all(per_image < 45.0), "an original leaked through OASIS-MR"

    def test_oasis_reduces_average_psnr_by_100db(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        undefended = average_attack_psnr(images, attack.reconstruct(grads).images)
        expanded, expanded_labels = OasisDefense("MR").expand_batch(images, labels)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), expanded, expanded_labels
        )
        defended = average_attack_psnr(images, attack.reconstruct(grads).images)
        assert undefended - defended > 100.0

    @pytest.mark.parametrize("suite", ["mR", "SH", "HFlip", "VFlip"])
    def test_all_transforms_defend(self, crafted, cifar_like, rng, suite):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        expanded, expanded_labels = OasisDefense(suite).expand_batch(images, labels)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), expanded, expanded_labels
        )
        result = attack.reconstruct(grads)
        assert average_attack_psnr(images, result.images) < 60.0
