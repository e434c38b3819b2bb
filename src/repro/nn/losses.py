"""Loss functions.

``CrossEntropyLoss`` is the loss used throughout the paper's experiments;
``LogisticLoss`` is the single-layer regression loss of the Sec. IV-D
linear-model gradient-inversion attack.
"""

from __future__ import annotations

import numpy as np

import repro.tensor.backend as backend
import repro.tensor.fused as fused
from repro.nn.module import Module
from repro.tensor import Tensor


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as one-hot rows."""
    labels = np.asarray(labels, dtype=np.int64)
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


class CrossEntropyLoss(Module):
    """Softmax cross entropy over logits with integer targets.

    ``reduction`` may be "mean" (default, matching the FL gradient averaging
    of paper Eq. 1) or "sum".
    """

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unsupported reduction: {reduction}")
        self.reduction = reduction

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        if backend.FUSED:
            return fused.cross_entropy(logits, targets, reduction=self.reduction)
        num_classes = logits.shape[-1]
        encoded = one_hot(np.asarray(targets), num_classes)
        log_probs = logits.log_softmax(axis=-1)
        per_sample = -(log_probs * Tensor(encoded)).sum(axis=-1)
        if self.reduction == "mean":
            return per_sample.mean()
        return per_sample.sum()


class LogisticLoss(Module):
    """Multi-class logistic-regression loss for the Sec. IV-D linear attack.

    Identical math to :class:`CrossEntropyLoss`; kept as a separate named
    class to mirror the paper's "trained with a logistic regression loss"
    description of the restrictive single-layer setting.
    """

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        self._inner = CrossEntropyLoss(reduction=reduction)

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return self._inner(logits, targets)
