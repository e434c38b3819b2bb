"""Robbing the Fed (RTF) — Fowl et al., ICLR 2022.

The server points every attacked neuron's weight row along one *measurement
direction* ``h`` (here: the mean pixel value, as in the paper and as noted
by OASIS Sec. IV-B) and staggers the biases at the negated Gaussian
quantiles of the measurement distribution:

    W_i = scale * h          b_i = -scale * q_i,   q_1 < q_2 < ... < q_n

Neuron ``i`` then fires exactly when ``h . x > q_i``, so a sample activates
the *prefix* of neurons whose quantile lies below its measurement.  The
successive difference of two neurons' gradients therefore isolates the
samples falling in one quantile bin:

    dL/dW_i - dL/dW_{i+1} = sum_{j in bin i} g_j x_j
    dL/db_i - dL/db_{i+1} = sum_{j in bin i} g_j

and their ratio is Eq. 6 applied to the bin.  A bin holding a single sample
yields that sample verbatim; a bin holding several yields their
``g``-weighted linear combination — which is precisely the handle OASIS
exploits: major rotations preserve the mean pixel value, so an image and
its rotations land in the *same bin* and only their overlap is recoverable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import ActiveReconstructionAttack, ReconstructionResult, clip_to_image
from repro.attacks.imprint import ImprintedModel, extract_imprint_gradients
from repro.utils.normal import ndtri


class RTFAttack(ActiveReconstructionAttack):
    """Robbing-the-Fed imprint attack with mean-pixel measurement bins.

    Parameters
    ----------
    num_neurons:
        Number of attacked neurons ``n`` (bins = n - 1).
    measurement_mean / measurement_std:
        The server's prior over the per-image mean pixel value, e.g.
        estimated from public data with
        :meth:`calibrate_from_public_data`.
    scale:
        Magnitude of the crafted weights; cancels in the inversion.
    signal_tolerance:
        Bias-gradient differences below this are treated as empty bins.
    denominator_floor:
        Clamp for the Eq. 6 denominator: a bin whose bias-gradient
        difference sits just above ``signal_tolerance`` is *occupied* but
        numerically treacherous — dividing by it amplifies gradient noise
        into garbage pixels.  Denominators are clamped (sign-preserving)
        to at least this floor in both the ``images`` and ``raw`` paths,
        bounding the amplification at ``1/denominator_floor`` while the
        result's ``occupancy`` field still reports the raw bin mass so
        callers can discount the weak bins.  Defaults to
        ``signal_tolerance`` (no behaviour change for well-conditioned
        bins).
    """

    name = "rtf"

    def __init__(
        self,
        num_neurons: int,
        measurement_mean: float = 0.5,
        measurement_std: float = 0.1,
        scale: float = 1.0,
        signal_tolerance: float = 1e-10,
        denominator_floor: Optional[float] = None,
    ) -> None:
        if num_neurons < 2:
            raise ValueError("RTF needs at least two neurons to form a bin")
        self.num_neurons = num_neurons
        self.measurement_mean = measurement_mean
        self.measurement_std = measurement_std
        self.scale = scale
        self.signal_tolerance = signal_tolerance
        self.denominator_floor = (
            signal_tolerance if denominator_floor is None else denominator_floor
        )
        if self.denominator_floor < signal_tolerance:
            raise ValueError(
                "denominator_floor below signal_tolerance would clamp bins "
                "already classified as empty"
            )
        self._image_shape: Optional[tuple[int, int, int]] = None
        self._quantiles: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate_from_public_data(self, public_images: np.ndarray) -> None:
        """Fit the measurement prior from a public dataset (RTF Sec. 3)."""
        measurements = public_images.reshape(len(public_images), -1).mean(axis=1)
        self.measurement_mean = float(measurements.mean())
        self.measurement_std = float(max(measurements.std(), 1e-6))

    def bin_edges(self) -> np.ndarray:
        """The Gaussian quantiles q_1 < ... < q_n staggering the biases."""
        probabilities = (np.arange(1, self.num_neurons + 1)) / (self.num_neurons + 1)
        return ndtri(probabilities) * self.measurement_std + self.measurement_mean

    # ------------------------------------------------------------------
    # Attack lifecycle
    # ------------------------------------------------------------------
    def craft(self, model: ImprintedModel) -> None:
        if model.num_neurons != self.num_neurons:
            raise ValueError(
                f"model has {model.num_neurons} attacked neurons, "
                f"attack expects {self.num_neurons}"
            )
        self._image_shape = model.input_shape
        d = model.flat_dim
        measurement_row = np.full(d, 1.0 / d)  # h . x = mean pixel value
        quantiles = self.bin_edges()
        weight = self.scale * np.tile(measurement_row, (self.num_neurons, 1))
        bias = -self.scale * quantiles
        model.set_imprint_parameters(weight, bias)
        self._quantiles = quantiles

    def reconstruct(self, gradients: dict[str, np.ndarray]) -> ReconstructionResult:
        if self._image_shape is None:
            raise RuntimeError("craft() must run before reconstruct()")
        weight_grad, bias_grad = extract_imprint_gradients(gradients)
        weight_diff = weight_grad[:-1] - weight_grad[1:]
        bias_diff = bias_grad[:-1] - bias_grad[1:]
        occupied = np.abs(bias_diff) > self.signal_tolerance
        indices = np.flatnonzero(occupied)
        if indices.size == 0:
            return ReconstructionResult.empty(
                self._image_shape, reason="no occupied measurement bin"
            )
        occupancy = bias_diff[indices]
        # Sign-preserving clamp: a denominator barely above the tolerance
        # would amplify gradient noise by up to 1/tolerance; both the
        # clipped images and the raw vectors divide by the same clamped
        # value so they can never disagree about a bin's reconstruction.
        denominators = np.sign(occupancy) * np.maximum(
            np.abs(occupancy), self.denominator_floor
        )
        flat = weight_diff[indices] / denominators[:, None]
        return ReconstructionResult(
            images=clip_to_image(flat, self._image_shape),
            neuron_indices=[int(i) for i in indices],
            raw=flat,
            occupancy=occupancy,
        )

    # ------------------------------------------------------------------
    # Introspection used by analysis/tests
    # ------------------------------------------------------------------
    def bin_of(self, images: np.ndarray) -> np.ndarray:
        """Index of the quantile bin each image's measurement falls into."""
        if self._quantiles is None:
            raise RuntimeError("craft() must run before bin_of()")
        measurements = images.reshape(len(images), -1).mean(axis=1)
        return np.searchsorted(self._quantiles, measurements) - 1
