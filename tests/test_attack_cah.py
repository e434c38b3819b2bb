"""Curious-Abandon-Honesty attack: trap tuning, inversion, dedup, defense."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import CAHAttack, ImprintedModel, activation_matrix
from repro.defense import OasisDefense
from repro.fl import compute_batch_gradients
from repro.metrics import average_attack_psnr, per_image_best_psnr
from repro.nn import CrossEntropyLoss


@pytest.fixture
def crafted(cifar_like):
    num_neurons = 150
    model = ImprintedModel(
        cifar_like.image_shape, num_neurons, cifar_like.num_classes,
        rng=np.random.default_rng(21),
    )
    attack = CAHAttack(num_neurons, activation_probability=0.05, seed=9)
    attack.calibrate_from_public_data(cifar_like.images[:120])
    attack.craft(model)
    return model, attack


class TestCrafting:
    def test_activation_probability_validated(self):
        with pytest.raises(ValueError):
            CAHAttack(10, activation_probability=0.0)
        with pytest.raises(ValueError):
            CAHAttack(10, activation_probability=1.0)

    def test_neuron_count_must_match(self, cifar_like):
        model = ImprintedModel(
            cifar_like.image_shape, 16, 10, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            CAHAttack(17).craft(model)

    def test_empirical_activation_rate_close_to_target(self, crafted, cifar_like):
        model, attack = crafted
        weight, bias = model.imprint_parameters()
        flat = cifar_like.images.reshape(len(cifar_like), -1).astype(np.float64)
        rate = activation_matrix(weight, bias, flat).mean()
        assert rate == pytest.approx(attack.activation_probability, abs=0.03)

    def test_trap_rows_are_distinct_directions(self, crafted):
        weight, _ = crafted[0].imprint_parameters()
        # Unlike RTF, rows are (nearly) orthogonal random directions.
        gram = weight @ weight.T
        off_diag = gram - np.diag(np.diag(gram))
        assert np.abs(off_diag).max() < 0.5 * np.diag(gram).min()

    def test_seed_determinism(self, cifar_like):
        models = []
        for _ in range(2):
            model = ImprintedModel(cifar_like.image_shape, 32, 10,
                                   rng=np.random.default_rng(0))
            attack = CAHAttack(32, seed=5)
            attack.calibrate_from_public_data(cifar_like.images[:50])
            attack.craft(model)
            models.append(model.imprint_parameters())
        np.testing.assert_array_equal(models[0][0], models[1][0])
        np.testing.assert_array_equal(models[0][1], models[1][1])

    def test_gaussian_fallback_without_public_data(self, cifar_like):
        model = ImprintedModel(
            cifar_like.image_shape, 32, 10, rng=np.random.default_rng(0)
        )
        attack = CAHAttack(32, pixel_mean=0.5, pixel_std=0.2)
        attack.craft(model)  # must not raise
        _, bias = model.imprint_parameters()
        assert np.all(np.isfinite(bias))

    def test_reconstruct_before_craft_raises(self):
        with pytest.raises(RuntimeError):
            CAHAttack(4).reconstruct(
                {"imprint.weight": np.zeros((4, 2)), "imprint.bias": np.zeros(4)}
            )


class TestReconstruction:
    def test_sole_activations_reconstructed_perfectly(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        weight, bias = model.imprint_parameters()
        acts = activation_matrix(weight, bias, images.reshape(4, -1))
        sole_neurons = np.flatnonzero(acts.sum(axis=0) == 1)
        if sole_neurons.size == 0:
            pytest.skip("no sole activation in this draw")
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        result = attack.reconstruct(grads)
        per_image = per_image_best_psnr(images, result.images)
        caught = np.flatnonzero(acts[:, sole_neurons].any(axis=1))
        for idx in caught:
            assert per_image[idx] > 120.0

    def test_deduplication_collapses_duplicates(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(2, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        attack.deduplicate = True
        deduped = attack.reconstruct(grads)
        attack.deduplicate = False
        raw = attack.reconstruct(grads)
        assert len(deduped) <= len(raw)

    def test_empty_gradients(self, crafted):
        model, attack = crafted
        result = attack.reconstruct(
            {
                "imprint.weight": np.zeros(model.imprint.weight.shape),
                "imprint.bias": np.zeros(model.imprint.bias.shape),
            }
        )
        assert len(result) == 0
        assert result.reason == "no trap neuron fired"


class TestDegenerateCalibration:
    """Guards for public data that makes quantile tuning meaningless.

    Regression: these inputs used to flow straight into the quantile
    placement and produce biases where every neuron fires (or none do),
    so reconstruct() emitted batch-mean garbage or raised deep inside
    numpy.  Now craft() disarms the layer and reconstruct() returns an
    empty result with a structured reason.
    """

    def degenerate_attack(self, cifar_like, public):
        attack = CAHAttack(32, seed=3)
        attack.calibrate_from_public_data(public)
        model = ImprintedModel(cifar_like.image_shape, 32, cifar_like.num_classes,
                               rng=np.random.default_rng(0))
        attack.craft(model)
        return model, attack

    def run_round(self, model, attack, cifar_like, rng):
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), images, labels
        )
        return attack.reconstruct(grads)

    def test_identical_public_samples(self, cifar_like, rng):
        # A "batch" of one image repeated: zero projection spread, so the
        # empirical quantile pins every bias to the single observed value.
        public = np.repeat(cifar_like.images[:1], 16, axis=0)
        model, attack = self.degenerate_attack(cifar_like, public)
        result = self.run_round(model, attack, cifar_like, rng)
        assert len(result) == 0
        assert "degenerate trap calibration" in result.reason
        # The disarmed layer is inert, not malformed.
        weight, bias = model.imprint_parameters()
        assert np.all(weight == 0.0)
        assert np.all(np.isfinite(bias))

    def test_non_finite_public_data(self, cifar_like, rng):
        public = cifar_like.images[:16].copy()
        public[3, 0, 0, 0] = np.nan
        model, attack = self.degenerate_attack(cifar_like, public)
        result = self.run_round(model, attack, cifar_like, rng)
        assert len(result) == 0
        assert "non-finite" in result.reason

    def test_every_trap_firing_returns_reasoned_empty(self, cifar_like):
        # All-positive bias gradients on every neuron: each trap caught
        # the whole batch, so each inversion is the same batch mean.
        attack = CAHAttack(32, seed=3)
        attack.calibrate_from_public_data(cifar_like.images[:64])
        model = ImprintedModel(cifar_like.image_shape, 32, cifar_like.num_classes,
                               rng=np.random.default_rng(0))
        attack.craft(model)
        grads = {
            "imprint.weight": np.ones(model.imprint.weight.shape),
            "imprint.bias": np.full(model.imprint.bias.shape, 0.5),
        }
        result = attack.reconstruct(grads)
        assert len(result) == 0
        assert "near-total activation" in result.reason

    def test_healthy_calibration_unaffected(self, cifar_like, rng):
        model, attack = self.degenerate_attack(
            cifar_like, cifar_like.images[:64]
        )
        result = self.run_round(model, attack, cifar_like, rng)
        assert attack._calibration_reason is None
        assert result.reason is None or len(result) == 0


class TestAgainstOasis:
    def test_mrsh_reduces_average_psnr(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(8, rng)
        grads, _ = compute_batch_gradients(model, CrossEntropyLoss(), images, labels)
        undefended = average_attack_psnr(images, attack.reconstruct(grads).images)
        expanded, expanded_labels = OasisDefense("MR+SH").expand_batch(images, labels)
        grads, _ = compute_batch_gradients(
            model, CrossEntropyLoss(), expanded, expanded_labels
        )
        defended = average_attack_psnr(images, attack.reconstruct(grads).images)
        assert defended < undefended - 15.0

    def test_occupancy_rises_with_expansion(self, crafted, cifar_like, rng):
        # The defense mechanism vs CAH: D' raises trap occupancy, so sole
        # activations become rarer.
        model, attack = crafted
        images, labels = cifar_like.sample_batch(8, rng)
        weight, bias = model.imprint_parameters()
        acts_plain = activation_matrix(weight, bias, images.reshape(8, -1))
        expanded, _ = OasisDefense("MR+SH").expand_batch(images, labels)
        acts_exp = activation_matrix(
            weight, bias, expanded.reshape(len(expanded), -1)
        )
        sole_plain = (acts_plain.sum(axis=0) == 1).sum()
        sole_exp = (acts_exp.sum(axis=0) == 1).sum()
        # Fraction of *batch images* with a private neuron must not grow.
        assert sole_exp / len(expanded) <= sole_plain / len(images) + 1e-9
