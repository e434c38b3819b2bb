"""Loss functions.

``CrossEntropyLoss`` is the loss used throughout the paper's experiments.
The paper's "logistic regression loss" of the Sec. IV-D single-layer
attack is this softmax cross-entropy too.
"""

from __future__ import annotations

import numpy as np

import repro.tensor.backend as backend
import repro.tensor.fused as fused
from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor.fused import one_hot


class CrossEntropyLoss(Module):
    """Softmax cross entropy over logits with integer targets.

    The batch mean, matching the FL gradient averaging of paper Eq. 1.
    """

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        if backend.FUSED:
            return fused.cross_entropy(logits, targets)
        num_classes = logits.shape[-1]
        encoded = one_hot(np.asarray(targets), num_classes)
        log_probs = logits.log_softmax(axis=-1)
        per_sample = -(log_probs * Tensor(encoded)).sum(axis=-1)
        return per_sample.mean()
