"""DP-SGD defense: per-sample clipping, noise calibration, and the
clipping-invariance of gradient inversion (why clipping alone fails)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ImprintedModel, RTFAttack
from repro.defense import DPSGDDefense, NoDefense
from repro.fl import clip_gradient_dict, compute_defended_update
from repro.metrics import average_attack_psnr
from repro.nn import CrossEntropyLoss


@pytest.fixture
def crafted(cifar_like):
    model = ImprintedModel(cifar_like.image_shape, 150, cifar_like.num_classes,
                           rng=np.random.default_rng(7))
    attack = RTFAttack(150)
    attack.calibrate_from_public_data(cifar_like.images[:100])
    attack.craft(model)
    return model, attack


class TestClipGradientDict:
    def test_large_gradients_scaled_down(self, rng):
        grads = {"w": rng.standard_normal(100) * 10.0}
        clipped = clip_gradient_dict(grads, 1.0)
        norm = np.sqrt(np.sum(clipped["w"] ** 2))
        assert norm == pytest.approx(1.0)

    def test_small_gradients_untouched(self, rng):
        grads = {"w": np.full(4, 1e-4)}
        clipped = clip_gradient_dict(grads, 1.0)
        np.testing.assert_array_equal(clipped["w"], grads["w"])

    def test_clipping_is_uniform_across_tensors(self, rng):
        grads = {"a": rng.standard_normal(10) * 5, "b": rng.standard_normal(10) * 5}
        clipped = clip_gradient_dict(grads, 1.0)
        ratio_a = clipped["a"] / grads["a"]
        ratio_b = clipped["b"] / grads["b"]
        np.testing.assert_allclose(ratio_a, ratio_a[0])
        np.testing.assert_allclose(ratio_b, ratio_a[0])


class TestDPSGDDefense:
    def test_validation(self):
        with pytest.raises(ValueError):
            DPSGDDefense(clip_norm=0.0)
        with pytest.raises(ValueError):
            DPSGDDefense(noise_multiplier=-0.1)

    def test_per_sample_clip_flag_set(self):
        defense = DPSGDDefense(clip_norm=0.7)
        assert defense.per_sample_clip == 0.7

    def test_zero_noise_finalize_is_identity(self, rng):
        defense = DPSGDDefense(clip_norm=1.0, noise_multiplier=0.0)
        grads = {"w": np.ones(3)}
        out = defense.finalize_update(grads, 8, rng)
        np.testing.assert_array_equal(out["w"], grads["w"])

    def test_noise_scales_inversely_with_batch(self, rng):
        defense = DPSGDDefense(clip_norm=1.0, noise_multiplier=8.0)
        zeros = {"w": np.zeros(20000)}
        small_batch = defense.finalize_update(dict(zeros), 2, np.random.default_rng(0))
        large_batch = defense.finalize_update(dict(zeros), 32, np.random.default_rng(0))
        assert np.std(small_batch["w"]) == pytest.approx(
            16 * np.std(large_batch["w"]), rel=0.05
        )

    def test_defended_update_bounds_sensitivity(self, cifar_like, rng):
        # The mean of per-sample-clipped gradients has sensitivity C/B:
        # removing one sample changes the update by at most 2C/B.
        defense = DPSGDDefense(clip_norm=0.5, noise_multiplier=0.0)
        model = ImprintedModel(cifar_like.image_shape, 50, cifar_like.num_classes,
                               rng=np.random.default_rng(3))
        images, labels = cifar_like.sample_batch(4, rng)
        grads, _, n, _ = compute_defended_update(
            model, CrossEntropyLoss(), images, labels, defense,
            np.random.default_rng(0),
        )
        assert n == 4
        total = np.sqrt(sum(np.sum(g ** 2) for g in grads.values()))
        assert total <= 0.5 + 1e-9  # mean of vectors each bounded by C


class TestClippingInvariance:
    def test_clipping_alone_does_not_stop_inversion(self, crafted, cifar_like, rng):
        """Eq. 6 divides two gradients of the same sample, so per-sample
        rescaling cancels: clipping-only DP-SGD leaves RTF at full power."""
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        defense = DPSGDDefense(clip_norm=0.01, noise_multiplier=0.0)
        grads, _, _, _ = compute_defended_update(
            model, CrossEntropyLoss(), images, labels, defense,
            np.random.default_rng(0),
        )
        result = attack.reconstruct(grads)
        assert average_attack_psnr(images, result.images) > 120.0

    def test_noise_is_what_stops_inversion(self, crafted, cifar_like, rng):
        model, attack = crafted
        images, labels = cifar_like.sample_batch(4, rng)
        defense = DPSGDDefense(clip_norm=0.01, noise_multiplier=1.0)
        grads, _, _, _ = compute_defended_update(
            model, CrossEntropyLoss(), images, labels, defense,
            np.random.default_rng(0),
        )
        result = attack.reconstruct(grads)
        assert average_attack_psnr(images, result.images) < 60.0

    def test_noiseless_dpsgd_matches_plain_update_direction(self, cifar_like, rng):
        # Clipped-mean update stays positively correlated with the plain
        # batch gradient (it is a reweighted sum of per-sample gradients).
        model = ImprintedModel(cifar_like.image_shape, 50, cifar_like.num_classes,
                               rng=np.random.default_rng(3))
        images, labels = cifar_like.sample_batch(4, rng)
        plain, _, _, _ = compute_defended_update(
            model, CrossEntropyLoss(), images, labels, NoDefense(),
            np.random.default_rng(0),
        )
        defended, _, _, _ = compute_defended_update(
            model, CrossEntropyLoss(), images, labels,
            DPSGDDefense(clip_norm=0.5, noise_multiplier=0.0),
            np.random.default_rng(0),
        )
        flat_plain = np.concatenate([v.ravel() for v in plain.values()])
        flat_def = np.concatenate([v.ravel() for v in defended.values()])
        cosine = flat_plain @ flat_def / (
            np.linalg.norm(flat_plain) * np.linalg.norm(flat_def)
        )
        assert cosine > 0.5
