"""Attack interface: craft malicious parameters, then invert gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.attacks.imprint import ImprintedModel


@dataclass
class ReconstructionResult:
    """Output of a reconstruction attempt.

    ``images`` holds the candidate reconstructions in (K, C, H, W) layout
    (K depends on the attack: bins with signal for RTF, activated neurons
    for CAH, classes present for the linear attack).  ``neuron_indices``
    maps each reconstruction back to the neuron (or bin / class) that
    produced it.  ``raw`` optionally keeps the flat unclipped vectors.

    ``occupancy`` (aligned with ``images``) is each reconstruction's raw
    bias-gradient mass — the Eq. 6 denominator before any clamping, i.e.
    the summed backprop coefficients of the samples the neuron/bin caught.
    Values near zero mark ill-conditioned inversions a caller may want to
    discount.  ``reason`` explains an *empty* result in a structured way
    ("no occupied bins", "degenerate trap calibration: ...") instead of
    leaving an empty array indistinguishable from a healthy miss.
    """

    images: np.ndarray
    neuron_indices: list[int] = field(default_factory=list)
    raw: Optional[np.ndarray] = None
    occupancy: Optional[np.ndarray] = None
    reason: Optional[str] = None

    def __len__(self) -> int:
        return len(self.images)

    @classmethod
    def empty(
        cls, image_shape: tuple[int, int, int], reason: Optional[str] = None
    ) -> "ReconstructionResult":
        """An empty result carrying a structured explanation."""
        return cls(
            images=np.empty((0,) + tuple(image_shape)),
            neuron_indices=[],
            reason=reason,
        )


class ActiveReconstructionAttack:
    """A dishonest-server attack: parameter manipulation + gradient inversion.

    Lifecycle (one FL round, paper Sec. III-A):

    1. ``craft(model)`` — the server overwrites the malicious layer of the
       global model before dispatching it.
    2. The (honest) client computes batch gradients on the crafted model.
    3. ``reconstruct(gradients)`` — the server inverts the uploaded
       gradients into candidate training images.

    ``model_family`` names the global model the attack targets, so grid
    runners build the right architecture per cell.
    """

    name = "abstract"
    model_family = "imprint"

    def craft(self, model: ImprintedModel) -> None:
        raise NotImplementedError

    def reconstruct(self, gradients: dict[str, np.ndarray]) -> ReconstructionResult:
        raise NotImplementedError


def clip_to_image(
    flat_vectors: np.ndarray, image_shape: tuple[int, int, int]
) -> np.ndarray:
    """Reshape flat reconstructions to images and clip into [0, 1].

    Clipping matches how reconstructions are rendered/scored: pixel space
    is [0, 1] and PSNR uses that data range.
    """
    images = flat_vectors.reshape((-1,) + tuple(image_shape))
    return np.clip(images, 0.0, 1.0)
