"""Additional image-quality metrics: SSIM and simple perceptual stats."""

from __future__ import annotations

import numpy as np


def ssim(
    original: np.ndarray,
    reconstruction: np.ndarray,
    data_range: float = 1.0,
    window: int = 7,
) -> float:
    """Mean structural similarity over a uniform sliding window.

    Follows Wang et al. (2004) with uniform (rather than Gaussian) windows;
    channels are averaged.  Values in [-1, 1]; 1 means identical structure.
    """
    from scipy import ndimage

    original = np.asarray(original, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    if original.shape != reconstruction.shape:
        raise ValueError("shape mismatch")
    if original.ndim == 2:
        original = original[None]
        reconstruction = reconstruction[None]

    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    scores = []
    size = (window, window)
    for a, b in zip(original, reconstruction):
        mu_a = ndimage.uniform_filter(a, size)
        mu_b = ndimage.uniform_filter(b, size)
        var_a = ndimage.uniform_filter(a * a, size) - mu_a ** 2
        var_b = ndimage.uniform_filter(b * b, size) - mu_b ** 2
        cov = ndimage.uniform_filter(a * b, size) - mu_a * mu_b
        numerator = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        denominator = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
        scores.append(np.mean(numerator / denominator))
    return float(np.mean(scores))


def image_entropy(image: np.ndarray, bins: int = 64) -> float:
    """Shannon entropy of the pixel histogram; crude texture measure."""
    histogram, _ = np.histogram(image, bins=bins, range=(0.0, 1.0), density=False)
    total = histogram.sum()
    if total == 0:
        return 0.0
    probabilities = histogram[histogram > 0] / total
    return float(-(probabilities * np.log2(probabilities)).sum())
