"""Classification accuracy metrics for the model-performance experiments."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.tensor import Tensor, no_grad

if TYPE_CHECKING:
    from repro.data.synthetic import SyntheticImageDataset
    from repro.nn.module import Module


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy from raw logits (N, K) vs integer labels (N,)."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("logits must be (N, K)")
    predictions = logits.argmax(axis=1)
    return float((predictions == labels).mean())


def model_accuracy(
    model: "Module", dataset: "SyntheticImageDataset", batch_size: int
) -> float:
    """Top-1 accuracy of ``model`` on ``dataset``, evaluated in batches.

    Runs the model in eval mode under ``no_grad`` over ``batch_size``-row
    chunks of the images (as float64), then puts it back in train mode.
    The batch size stays the caller's choice because the chunk shape sets
    the BLAS blocking, so a different size may move the logits' last bits.
    """
    model.eval()
    logits = []
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            images = dataset.images[start : start + batch_size].astype(np.float64)
            logits.append(model(Tensor(images)).numpy())
    model.train()
    return accuracy(np.concatenate(logits), dataset.labels)
