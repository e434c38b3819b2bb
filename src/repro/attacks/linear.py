"""Gradient inversion on single-layer (logistic-regression) models.

Paper Sec. IV-D: a restrictive setting from Geiping et al. / Fowl et al.
where the global model is one linear layer trained with logistic loss and
every image in the batch carries a unique label.  The softmax cross-entropy
gradients of class row ``k`` are

    dL/dW_k = sum_j (p_jk - y_jk) x_j        dL/db_k = sum_j (p_jk - y_jk)

so dividing the two (Eq. 6 again, without any ReLU gating) reconstructs a
weighting of the batch dominated by the class-``k`` sample, whose
coefficient ``p_tk - 1`` is the only O(1) term.  With OASIS, the class-``k``
"sample" is the image *plus its transforms sharing the label*, so the ratio
is a linear combination of the image and its transformed copies — the
single-layer case where Proposition 1 holds by construction (the paper:
"adding transformed images to the training batch guarantees that x_t and
X'_t activate the same neuron").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import ReconstructionResult, clip_to_image
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.tensor import Tensor


class LinearClassifier(Module):
    """Single fully-connected layer: logits = x W^T + b (flattens images)."""

    def __init__(
        self,
        input_shape: tuple[int, int, int],
        num_classes: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.input_shape = tuple(input_shape)
        self.flat_dim = int(np.prod(input_shape))
        self.num_classes = num_classes
        self.fc = Linear(self.flat_dim, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        flat = x.flatten(1) if x.ndim > 2 else x
        return self.fc(flat)


class LinearModelInversion:
    """Invert single-layer gradients class-row by class-row.

    Unlike the imprint attacks there is nothing to craft: the server simply
    reads the uploaded gradients of the (honest) linear model.
    """

    name = "linear"
    model_family = "linear"

    def __init__(self, signal_tolerance: float = 1e-10) -> None:
        self.signal_tolerance = signal_tolerance
        self._image_shape: Optional[tuple[int, int, int]] = None

    def calibrate_from_public_data(self, public_images: np.ndarray) -> None:
        """Nothing to calibrate: the inversion reads honest gradients."""

    def craft(self, model: LinearClassifier) -> None:
        """No parameter manipulation; remembers the image geometry."""
        self._image_shape = model.input_shape

    def reconstruct(self, gradients: dict[str, np.ndarray]) -> ReconstructionResult:
        if self._image_shape is None:
            raise RuntimeError("craft() must run before reconstruct()")
        weight_grad = gradients["fc.weight"]
        bias_grad = gradients["fc.bias"]
        # A class row has dL/db_k = sum_j (p_jk - y_jk): strictly negative
        # when class k is present in the batch (the -1 from its own label
        # dominates), positive otherwise.  Only present classes carry a
        # recoverable sample, so invert only the negative rows.
        indices = np.flatnonzero(bias_grad < -self.signal_tolerance)
        if indices.size == 0:
            return ReconstructionResult.empty(
                self._image_shape, reason="no class row carries signal"
            )
        flat = weight_grad[indices] / bias_grad[indices, None]
        return ReconstructionResult(
            images=clip_to_image(flat, self._image_shape),
            neuron_indices=[int(i) for i in indices],
            raw=flat,
            occupancy=bias_grad[indices],
        )
