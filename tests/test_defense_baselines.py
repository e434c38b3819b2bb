"""Baseline defenses: DP noise, gradient pruning, ATS transform-replace."""

from __future__ import annotations

import numpy as np
import pytest

from repro.defense import (
    DPGradientDefense,
    GradientPruningDefense,
    NoDefense,
    OasisDefense,
    TransformReplaceDefense,
    make_defense,
)


@pytest.fixture
def gradients(rng):
    return {
        "layer.weight": rng.standard_normal((8, 4)),
        "layer.bias": rng.standard_normal(8),
    }


class TestDPGradientDefense:
    def test_clipping_bounds_norm(self, gradients, rng):
        defense = DPGradientDefense(clip_norm=0.5, noise_multiplier=0.0)
        out = defense.process_gradients(gradients, rng)
        total = np.sqrt(sum(np.sum(g ** 2) for g in out.values()))
        assert total <= 0.5 + 1e-9

    def test_small_gradients_not_scaled_up(self, rng):
        small = {"w": np.full(4, 1e-3)}
        defense = DPGradientDefense(clip_norm=10.0, noise_multiplier=0.0)
        out = defense.process_gradients(small, rng)
        np.testing.assert_allclose(out["w"], small["w"])

    def test_noise_changes_gradients(self, gradients, rng):
        defense = DPGradientDefense(clip_norm=1.0, noise_multiplier=1.0)
        out = defense.process_gradients(gradients, rng)
        assert not np.allclose(out["layer.weight"], gradients["layer.weight"])

    def test_noise_scale(self, rng):
        defense = DPGradientDefense(clip_norm=2.0, noise_multiplier=0.5)
        zeros = {"w": np.zeros(200_00)}
        out = defense.process_gradients(zeros, rng)
        # sigma = multiplier * clip = 1.0
        assert np.std(out["w"]) == pytest.approx(1.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            DPGradientDefense(clip_norm=0.0)
        with pytest.raises(ValueError):
            DPGradientDefense(noise_multiplier=-1.0)

    def test_name_mentions_sigma(self):
        assert "0.3" in DPGradientDefense(noise_multiplier=0.3).name


class TestGradientPruning:
    def test_prunes_requested_fraction(self, rng):
        grads = {"w": rng.standard_normal(1000)}
        defense = GradientPruningDefense(prune_fraction=0.9)
        out = defense.process_gradients(grads, rng)
        assert (out["w"] == 0.0).mean() == pytest.approx(0.9, abs=0.01)

    def test_keeps_largest_magnitudes(self, rng):
        grads = {"w": np.array([0.1, -5.0, 0.2, 3.0])}
        defense = GradientPruningDefense(prune_fraction=0.5)
        out = defense.process_gradients(grads, rng)
        np.testing.assert_array_equal(out["w"], [0.0, -5.0, 0.0, 3.0])

    def test_zero_fraction_is_identity(self, gradients, rng):
        defense = GradientPruningDefense(prune_fraction=0.0)
        out = defense.process_gradients(gradients, rng)
        np.testing.assert_array_equal(out["layer.weight"], gradients["layer.weight"])

    def test_validation(self):
        with pytest.raises(ValueError):
            GradientPruningDefense(prune_fraction=1.0)


class TestTransformReplace:
    def test_batch_size_unchanged(self, rng):
        images = rng.random((6, 3, 8, 8))
        labels = np.arange(6)
        defense = TransformReplaceDefense("MR")
        defense.reseed(0)
        out_images, out_labels = defense.process_batch(images, labels, rng)
        assert out_images.shape == images.shape
        np.testing.assert_array_equal(out_labels, labels)

    def test_images_actually_transformed(self, rng):
        images = rng.random((6, 3, 8, 8))
        defense = TransformReplaceDefense("MR")
        defense.reseed(0)
        out_images, _ = defense.process_batch(images, np.arange(6), rng)
        # Rotations of random images differ from the originals.
        assert not np.allclose(out_images, images)

    def test_each_output_is_some_suite_transform(self, rng):
        images = rng.random((3, 3, 8, 8))
        defense = TransformReplaceDefense("MR")
        defense.reseed(0)
        out_images, _ = defense.process_batch(images, np.arange(3), rng)
        for i in range(3):
            candidates = [t(images[i]) for t in defense.suite.transforms]
            assert any(np.allclose(out_images[i], c) for c in candidates)


class TestLineup:
    def test_wo_maps_to_no_defense(self):
        lineup = [make_defense(name) for name in ["WO", "MR"]]
        assert isinstance(lineup[0], NoDefense)
        assert isinstance(lineup[1], OasisDefense)

    def test_names_preserved(self):
        lineup = [make_defense(name) for name in ["WO", "MR+SH"]]
        assert [d.name for d in lineup] == ["WO", "MR+SH"]

    def test_typo_raises_name_listing_error(self):
        # Registry-backed: no more opaque KeyError on a misspelled arm.
        from repro.registry import UnknownNameError

        with pytest.raises(UnknownNameError, match="registered defenses"):
            make_defense("MRR")

    def test_gradient_and_composed_arms_resolve(self):
        from repro.defense import DefensePipeline, DPSGDDefense

        lineup = [make_defense(name) for name in ["dpsgd", "MR>dpsgd"]]
        assert isinstance(lineup[0], DPSGDDefense)
        assert isinstance(lineup[1], DefensePipeline)
