"""PSNR / accuracy metric correctness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import (
    MSE_FLOOR,
    PSNR_CEILING,
    accuracy,
    average_attack_psnr,
    best_match_psnr,
    match_reconstructions,
    mse,
    pairwise_mse,
    pairwise_psnr,
    per_image_best_psnr,
    psnr,
)


class TestMSE:
    def test_zero_for_identical(self, rng):
        x = rng.random((3, 4, 4))
        assert mse(x, x) == 0.0

    def test_known_value(self):
        assert mse(np.zeros(4), np.full(4, 2.0)) == 4.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))


class TestPSNR:
    def test_perfect_reconstruction_hits_ceiling(self, rng):
        x = rng.random((3, 8, 8))
        assert psnr(x, x) == pytest.approx(PSNR_CEILING)

    def test_ceiling_is_140db(self):
        assert PSNR_CEILING == pytest.approx(140.0)

    def test_known_value(self):
        # MSE = 0.01 with range 1 => 20 dB.
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.1)
        assert psnr(a, b) == pytest.approx(20.0)

    def test_monotone_in_error(self, rng):
        x = rng.random((3, 8, 8))
        small = x + 0.01
        large = x + 0.1
        assert psnr(x, small) > psnr(x, large)

    def test_float32_scale_floor(self):
        # Errors below float32 precision are reported at the ceiling, like
        # the paper's instrumentation would.
        x = np.zeros((4, 4))
        assert psnr(x, x + 1e-9) == pytest.approx(PSNR_CEILING)
        assert MSE_FLOOR == 1e-14


class TestMatching:
    def test_best_match_finds_correct_original(self, rng):
        originals = rng.random((5, 3, 4, 4))
        recon = originals[3] + 0.001
        score, index = best_match_psnr(originals, recon)
        assert index == 3
        assert score > 50.0

    def test_match_reconstructions(self, rng):
        originals = rng.random((3, 1, 4, 4))
        recons = originals[[2, 0]]
        matches = match_reconstructions(originals, recons)
        assert [m[0] for m in matches] == [2, 0]

    def test_average_attack_psnr_empty(self, rng):
        originals = rng.random((3, 1, 4, 4))
        assert average_attack_psnr(originals, np.empty((0, 1, 4, 4))) == 0.0

    def test_average_attack_psnr_perfect(self, rng):
        originals = rng.random((3, 1, 4, 4))
        assert average_attack_psnr(originals, originals) == pytest.approx(PSNR_CEILING)

    def test_per_image_best_psnr(self, rng):
        originals = rng.random((4, 1, 4, 4))
        recons = originals[[1]]
        scores = per_image_best_psnr(originals, recons)
        assert scores[1] == pytest.approx(PSNR_CEILING)
        assert all(scores[i] < PSNR_CEILING for i in (0, 2, 3))

    def test_per_image_best_empty(self, rng):
        originals = rng.random((2, 1, 4, 4))
        np.testing.assert_array_equal(
            per_image_best_psnr(originals, np.empty((0, 1, 4, 4))), np.zeros(2)
        )

    def test_empty_originals_raises_clearly(self, rng):
        # Regression: np.argmax over an empty score list used to raise an
        # opaque "attempt to get argmax of an empty sequence".
        recon = rng.random((1, 4, 4))
        with pytest.raises(ValueError, match="empty set of originals"):
            best_match_psnr(np.empty((0, 1, 4, 4)), recon)
        with pytest.raises(ValueError, match="empty set of originals"):
            match_reconstructions(np.empty((0, 1, 4, 4)), recon[None])

    def test_empty_reconstructions_matches_nothing(self, rng):
        assert match_reconstructions(rng.random((3, 1, 4, 4)), []) == []

    def test_duplicates_share_their_best_original(self, rng):
        originals = rng.random((4, 1, 4, 4))
        duplicates = np.stack([originals[1] + 1e-3, originals[1] + 2e-3])
        best = match_reconstructions(originals, duplicates)
        assert [index for index, _ in best] == [1, 1]


class TestPairwiseMatrix:
    """The vectorized hot path must agree with the scalar definitions."""

    def test_matches_scalar_mse(self, rng):
        originals = rng.random((5, 3, 6, 6))
        recons = rng.random((4, 3, 6, 6))
        matrix = pairwise_mse(originals, recons)
        assert matrix.shape == (4, 5)
        for r, recon in enumerate(recons):
            for b, original in enumerate(originals):
                assert matrix[r, b] == pytest.approx(
                    mse(original, recon), abs=1e-12
                )

    def test_matches_scalar_psnr_including_near_perfect(self, rng):
        # Mix of exact hits (MSE-floor territory), near hits, and misses —
        # the regimes where a naive quadratic expansion loses precision.
        originals = rng.random((6, 3, 8, 8))
        recons = np.concatenate(
            [originals[[2]], originals[[4]] + 1e-4, rng.random((3, 3, 8, 8))]
        )
        matrix = pairwise_psnr(originals, recons)
        for r, recon in enumerate(recons):
            for b, original in enumerate(originals):
                assert matrix[r, b] == pytest.approx(
                    psnr(original, recon), abs=1e-9
                )
        assert matrix[0, 2] == pytest.approx(PSNR_CEILING)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            pairwise_mse(rng.random((2, 1, 4, 4)), rng.random((2, 1, 5, 5)))

    def test_empty_sets_yield_empty_matrices(self, rng):
        originals = rng.random((3, 1, 4, 4))
        assert pairwise_mse(originals, np.empty((0, 1, 4, 4))).shape == (0, 3)
        assert pairwise_psnr(np.empty((0, 1, 4, 4)), originals).shape == (3, 0)

    def test_average_attack_psnr_empty_originals_raises(self, rng):
        with pytest.raises(ValueError, match="empty set of originals"):
            average_attack_psnr(np.empty((0, 1, 4, 4)), rng.random((2, 1, 4, 4)))


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(4)
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_partial(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(3))
