"""Peak Signal-to-Noise Ratio, the paper's reconstruction-quality metric.

Higher PSNR = better reconstruction = more privacy leakage; OASIS aims to
*minimize* it (paper Sec. IV-A, Fig. 2).

A perfect reconstruction has zero MSE and unbounded PSNR.  The paper's
"perfect reconstruction" values sit in the 120-150 dB range because their
float32 pipeline leaves ~1e-7 relative error.  Our float64 pipeline is more
exact, so we floor the MSE at ``MSE_FLOOR`` (1e-14, i.e. float32-scale
squared error) to report the same ceiling the paper's instrumentation
would; see EXPERIMENTS.md.

Matching is vectorized: every reconstruction-vs-original score comes out of
one broadcasted pairwise-MSE matrix (:func:`pairwise_mse`), so scoring an
attack round costs one array reduction instead of an O(R x B) Python loop.
Each reconstruction is scored against whichever original it matches best,
the paper's convention; images live in [0, 1], so the peak signal is 1.
"""

from __future__ import annotations

import numpy as np

MSE_FLOOR = 1e-14
PSNR_CEILING = 10.0 * np.log10(1.0 / MSE_FLOOR)  # 140 dB

# Entries of the GEMM-computed pairwise-MSE matrix below this value are
# recomputed with the exact direct difference: the quadratic expansion
# ``|a|^2 + |b|^2 - 2ab`` is fast (one BLAS matmul) but cancels
# catastrophically near zero, exactly where the MSE floor semantics matter.
_EXACT_RECOMPUTE_THRESHOLD = 1e-4


def mse(original: np.ndarray, reconstruction: np.ndarray) -> float:
    """Mean squared error between two images (any matching shape)."""
    original = np.asarray(original, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    if original.shape != reconstruction.shape:
        raise ValueError(
            f"shape mismatch: {original.shape} vs {reconstruction.shape}"
        )
    return float(np.mean((original - reconstruction) ** 2))


def psnr(
    original: np.ndarray,
    reconstruction: np.ndarray,
) -> float:
    """PSNR in dB of images in [0, 1]: ``10 log10(1 / MSE)``, MSE floored."""
    error = max(mse(original, reconstruction), MSE_FLOOR)
    return float(10.0 * np.log10(1.0 / error))


def _flatten_sets(
    originals: np.ndarray, reconstructions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and flatten both image sets to float64 ``(N, D)`` matrices."""
    originals = np.asarray(originals, dtype=np.float64)
    reconstructions = np.asarray(reconstructions, dtype=np.float64)
    # Explicit per-image dims (not reshape(N, -1)): numpy cannot infer -1
    # for a zero-length set, and empty sets are legal inputs here.
    flat_originals = originals.reshape(
        len(originals), int(np.prod(originals.shape[1:], dtype=np.int64))
    )
    flat_reconstructions = reconstructions.reshape(
        len(reconstructions),
        int(np.prod(reconstructions.shape[1:], dtype=np.int64)),
    )
    if (
        len(flat_originals)
        and len(flat_reconstructions)
        and flat_originals.shape[1] != flat_reconstructions.shape[1]
    ):
        raise ValueError(
            "originals and reconstructions have incompatible image sizes: "
            f"{originals.shape[1:]} vs {reconstructions.shape[1:]}"
        )
    return flat_originals, flat_reconstructions


def pairwise_mse(
    originals: np.ndarray, reconstructions: np.ndarray
) -> np.ndarray:
    """The ``(R, B)`` matrix of MSEs between reconstructions and originals.

    Entry ``[r, b]`` equals ``mse(originals[b], reconstructions[r])``.  The
    bulk of the matrix comes from the quadratic expansion
    ``(|a|^2 + |b|^2 - 2ab) / D`` — one BLAS matmul instead of an
    ``O(R x B x D)`` broadcasted difference — and every entry that lands
    below ``_EXACT_RECOMPUTE_THRESHOLD`` is then recomputed with the exact
    direct difference.  Near-zero errors are precisely where the expansion
    cancels catastrophically and where the ``MSE_FLOOR`` semantics matter
    (a perfect reconstruction must floor at the ceiling, not at GEMM
    round-off), so the refined entries match the scalar path bit-for-bit
    and the fast entries agree to ~1e-14 relative.
    """
    flat_originals, flat_reconstructions = _flatten_sets(
        originals, reconstructions
    )
    num_reconstructions = len(flat_reconstructions)
    num_originals = len(flat_originals)
    if num_reconstructions == 0 or num_originals == 0:
        return np.empty((num_reconstructions, num_originals))
    dim = flat_originals.shape[1]
    original_norms = np.einsum("ij,ij->i", flat_originals, flat_originals)
    reconstruction_norms = np.einsum(
        "ij,ij->i", flat_reconstructions, flat_reconstructions
    )
    out = (
        reconstruction_norms[:, None]
        + original_norms[None, :]
        - 2.0 * (flat_reconstructions @ flat_originals.T)
    ) / dim
    np.maximum(out, 0.0, out=out)
    for row, col in np.argwhere(out < _EXACT_RECOMPUTE_THRESHOLD):
        diff = flat_reconstructions[row] - flat_originals[col]
        out[row, col] = np.mean(diff * diff)
    return out


def pairwise_psnr(
    originals: np.ndarray,
    reconstructions: np.ndarray,
) -> np.ndarray:
    """The ``(R, B)`` matrix of floored PSNRs (see :func:`pairwise_mse`)."""
    errors = np.maximum(pairwise_mse(originals, reconstructions), MSE_FLOOR)
    return 10.0 * np.log10(1.0 / errors)


def best_match_psnr(
    originals: np.ndarray,
    reconstruction: np.ndarray,
) -> tuple[float, int]:
    """PSNR of ``reconstruction`` against its best-matching original.

    Active attacks emit reconstructions without knowing which batch element
    each corresponds to; following the `breaching` evaluation convention we
    score each reconstruction against the original it matches best.
    Returns (psnr, index of matched original).
    """
    if len(originals) == 0:
        raise ValueError(
            "cannot match a reconstruction against an empty set of originals"
        )
    scores = pairwise_psnr(originals, np.asarray(reconstruction)[None])[0]
    best = int(np.argmax(scores))
    return float(scores[best]), best


def match_reconstructions(
    originals: np.ndarray,
    reconstructions: np.ndarray,
) -> list[tuple[int, float]]:
    """Score every reconstruction against the originals, vectorized.

    Returns a list of (matched original index, psnr) per reconstruction.
    Every reconstruction claims its highest-PSNR original, duplicates
    allowed — the paper's convention.
    """
    if len(reconstructions) == 0:
        return []
    if len(originals) == 0:
        raise ValueError(
            "cannot match reconstructions against an empty set of originals"
        )
    scores = pairwise_psnr(originals, reconstructions)
    indices = np.argmax(scores, axis=1)
    return [
        (int(index), float(scores[row, index]))
        for row, index in enumerate(indices)
    ]


def average_attack_psnr(
    originals: np.ndarray,
    reconstructions: np.ndarray,
) -> float:
    """The figures' headline number: mean best-match PSNR over reconstructions.

    Returns 0.0 when the attack produced no valid reconstructions (total
    failure — lower than any real PSNR, matching the paper's convention that
    lower is a weaker attack).
    """
    if len(reconstructions) == 0:
        return 0.0
    if len(originals) == 0:
        raise ValueError(
            "cannot score reconstructions against an empty set of originals"
        )
    scores = pairwise_psnr(originals, reconstructions)
    return float(np.mean(scores.max(axis=1)))


def per_image_best_psnr(
    originals: np.ndarray,
    reconstructions: np.ndarray,
) -> np.ndarray:
    """For each *original*, the PSNR of the closest reconstruction.

    Measures worst-case per-sample leakage: an attacker only needs one good
    reconstruction of an image for that image's privacy to be lost.
    """
    if len(reconstructions) == 0:
        return np.zeros(len(originals))
    scores = pairwise_psnr(originals, reconstructions)
    return scores.max(axis=0)
