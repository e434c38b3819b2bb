"""Evaluation metrics: PSNR (attack success) and accuracy."""

from repro.metrics.accuracy import accuracy
from repro.metrics.psnr import (
    MSE_FLOOR,
    PSNR_CEILING,
    average_attack_psnr,
    best_match_psnr,
    match_reconstructions,
    mse,
    pairwise_mse,
    pairwise_psnr,
    per_image_best_psnr,
    psnr,
)

__all__ = [
    "psnr",
    "mse",
    "pairwise_mse",
    "pairwise_psnr",
    "best_match_psnr",
    "match_reconstructions",
    "average_attack_psnr",
    "per_image_best_psnr",
    "MSE_FLOOR",
    "PSNR_CEILING",
    "accuracy",
]
