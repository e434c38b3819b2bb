"""Shared trap-weight machinery for the CAH-family imprint attacks.

CAH, QBI, and LOKI all build their malicious layer the same way: random
*trap directions* as weight rows, biases tuned so each attacked neuron
fires for a controlled fraction of inputs, and Eq. 6 inversion of every
neuron that fired.  This module factors that recipe out so the three
attacks differ only in *how they choose the activation probability* (CAH:
fixed small constant; QBI: the sole-activation optimum ``1/B``; LOKI:
per-client-disjoint neuron blocks) and keeps the gradient algebra
identical across them.

:class:`TrapImprintAttack` is the common base class.  It also owns the
degenerate-calibration guard: trap tuning silently falls apart when the
calibration data makes the quantile placement meaningless (a single
public sample, constant projections, non-finite pixels — then every
neuron fires or none do), and the base class converts that into an empty
:class:`~repro.attacks.base.ReconstructionResult` with a structured
``reason`` instead of raising deep inside a quantile call or emitting
batch-mean garbage.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import (
    ActiveReconstructionAttack,
    ReconstructionResult,
    clip_to_image,
)
from repro.attacks.imprint import ImprintedModel, extract_imprint_gradients
from repro.utils.normal import ndtri

# Fewer public samples than this and the empirical quantile is noise; the
# Gaussian moment fallback takes over (matches the original CAH guard).
MIN_EMPIRICAL_SAMPLES = 8

# Structured reason for a healthy-but-silent inversion (no trap fired).
# Callers that need to distinguish "nothing to report" from real failure
# modes compare against this constant, never the prose.
NO_SIGNAL_REASON = "no trap neuron fired"


def trap_weight_rows(
    num_rows: int, flat_dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Unit-variance random trap directions: rows w_i ~ N(0, 1/d) entrywise."""
    return rng.standard_normal((num_rows, flat_dim)) / np.sqrt(flat_dim)


def trap_biases(
    weight: np.ndarray,
    activation_probability: float,
    public_flat: Optional[np.ndarray] = None,
    pixel_mean: float = 0.5,
    pixel_std: float = 0.25,
) -> np.ndarray:
    """Biases placing each trap at the target activation probability.

    With enough public data the bias sits at the *empirical* ``(1 - p)``
    quantile of that neuron's projection distribution — the data-driven
    tuning CAH/QBI describe, considerably sharper than a Gaussian moment
    fit when pixels are spatially correlated.  Otherwise falls back to the
    iid-pixel Gaussian approximation (proj mean ``m * sum(w)``, std
    ``s * ||w||``).
    """
    if public_flat is not None and len(public_flat) >= MIN_EMPIRICAL_SAMPLES:
        projections = weight @ public_flat.T  # (n, num_public)
        thresholds = np.quantile(
            projections, 1.0 - activation_probability, axis=1
        )
        return -thresholds
    row_sums = weight.sum(axis=1)
    row_norms = np.linalg.norm(weight, axis=1)
    z = ndtri(1.0 - activation_probability)
    return -(pixel_mean * row_sums + z * pixel_std * row_norms)


def calibration_degeneracy(public_flat: Optional[np.ndarray]) -> Optional[str]:
    """Why empirical trap calibration would degenerate on this public set.

    Returns ``None`` when the data can support a quantile placement, or a
    structured reason when it cannot: non-finite pixels poison every
    quantile, and a calibration set without projection spread (a single
    sample, or identical samples) pins every threshold to the same point
    mass — the bias then sits *at* the only observed projection and every
    trap either fires for everything or for nothing.
    """
    if public_flat is None or len(public_flat) < MIN_EMPIRICAL_SAMPLES:
        return None  # Gaussian fallback path; nothing empirical to degenerate
    if not np.all(np.isfinite(public_flat)):
        return "public calibration data contains non-finite pixels"
    if np.ptp(public_flat, axis=0).max() == 0.0:
        return (
            "public calibration samples are identical (no projection "
            "spread); every trap would fire for all inputs or none"
        )
    return None


def invert_active_neurons(
    weight_grad: np.ndarray,
    bias_grad: np.ndarray,
    tolerance: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 6 over every neuron carrying signal.

    Returns ``(flat_reconstructions, neuron_indices, occupancy)`` where
    ``occupancy`` is the raw bias gradient of each inverted neuron (the
    summed backprop coefficients of the samples it caught).
    """
    active = np.abs(bias_grad) > tolerance
    indices = np.flatnonzero(active)
    flat = weight_grad[indices] / bias_grad[indices, None]
    return flat, indices, bias_grad[indices]


def deduplicate_reconstructions(
    flat: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse near-identical reconstructions (many traps catch the same x).

    Greedy pass in neuron order; keeps the first representative of each
    cluster of vectors whose cosine similarity exceeds 0.9999.  The pairwise
    similarities are computed as one Gram matrix so the pass stays fast for
    hundreds of candidate reconstructions.
    """
    norms = np.linalg.norm(flat, axis=1)
    norms = np.where(norms < 1e-12, 1.0, norms)
    normalized = flat / norms[:, None]
    gram = normalized @ normalized.T
    duplicate_of_earlier_kept = np.zeros(len(flat), dtype=bool)
    keep: list[int] = []
    for row in range(len(flat)):
        if duplicate_of_earlier_kept[row]:
            continue
        keep.append(row)
        duplicate_of_earlier_kept |= gram[row] > 0.9999
    keep_array = np.array(keep, dtype=np.int64)
    return flat[keep_array], indices[keep_array]


class TrapImprintAttack(ActiveReconstructionAttack):
    """Base class for trap-weight imprint attacks (CAH, QBI, LOKI blocks).

    Subclasses set :attr:`activation_probability` (directly or derived)
    and inherit calibration, crafting, the degenerate-calibration guard,
    and Eq. 6 inversion of every activated neuron.
    """

    # Reconstructions where this fraction of traps (or more) fired are
    # degenerate: honest trap tuning keeps per-neuron firing probability
    # small, so near-total activation means the biases are mistuned and
    # every "reconstruction" is the same batch-mean garbage.
    degenerate_activation_fraction = 0.95

    def __init__(
        self,
        num_neurons: int,
        activation_probability: float,
        pixel_mean: float = 0.5,
        pixel_std: float = 0.25,
        seed: int = 0,
        signal_tolerance: float = 1e-10,
        deduplicate: bool = True,
    ) -> None:
        if not 0.0 < activation_probability < 1.0:
            raise ValueError("activation_probability must be in (0, 1)")
        self.num_neurons = num_neurons
        self.activation_probability = activation_probability
        self.pixel_mean = pixel_mean
        self.pixel_std = pixel_std
        self.seed = seed
        self.signal_tolerance = signal_tolerance
        self.deduplicate = deduplicate
        self._image_shape: Optional[tuple[int, int, int]] = None
        self._public_flat: Optional[np.ndarray] = None
        self._calibration_reason: Optional[str] = None

    def calibrate_from_public_data(self, public_images: np.ndarray) -> None:
        """Calibrate against a public dataset.

        Keeps the flattened public images so :meth:`craft` can place each
        trap neuron's bias at the *empirical* (1 - p) quantile of that
        neuron's projection distribution.
        """
        flat = public_images.reshape(len(public_images), -1).astype(np.float64)
        self._public_flat = flat
        finite = flat[np.all(np.isfinite(flat), axis=1)]
        self.pixel_mean = float(finite.mean()) if len(finite) else self.pixel_mean
        self.pixel_std = (
            float(max(finite.std(), 1e-6)) if len(finite) else self.pixel_std
        )

    def _check_model(self, model: ImprintedModel) -> None:
        if model.num_neurons != self.num_neurons:
            raise ValueError(
                f"model has {model.num_neurons} attacked neurons, "
                f"attack expects {self.num_neurons}"
            )

    def craft(self, model: ImprintedModel) -> None:
        self._check_model(model)
        self._image_shape = model.input_shape
        self._calibration_reason = calibration_degeneracy(self._public_flat)
        if self._calibration_reason is not None:
            # Install a disarmed layer (no trap ever fires) rather than
            # shipping quantiles computed from garbage: the client still
            # receives a well-formed model, and reconstruct() reports the
            # structured reason instead of emitting nonsense images.
            weight = np.zeros((self.num_neurons, model.flat_dim))
            bias = np.full(self.num_neurons, -1.0)
            model.set_imprint_parameters(weight, bias)
            return
        rng = np.random.default_rng(self.seed)
        weight = trap_weight_rows(self.num_neurons, model.flat_dim, rng)
        bias = trap_biases(
            weight,
            self.activation_probability,
            public_flat=self._public_flat,
            pixel_mean=self.pixel_mean,
            pixel_std=self.pixel_std,
        )
        model.set_imprint_parameters(weight, bias)

    def _calibration_failure(self) -> Optional[ReconstructionResult]:
        """The reasoned empty result for a disarmed layer, if disarmed."""
        if self._calibration_reason is None:
            return None
        return ReconstructionResult.empty(
            self._image_shape,
            reason=f"degenerate trap calibration: {self._calibration_reason}",
        )

    def _invert_guarded(
        self,
        weight_grad: np.ndarray,
        bias_grad: np.ndarray,
        index_offset: int = 0,
    ) -> ReconstructionResult:
        """Eq. 6 over one (slice of a) trap layer, with the sanity guards.

        ``index_offset`` shifts the reported neuron indices when the
        arrays are a block slice of a larger layer (LOKI's per-client
        blocks).
        """
        flat, indices, occupancy = invert_active_neurons(
            weight_grad, bias_grad, self.signal_tolerance
        )
        if indices.size == 0:
            return ReconstructionResult.empty(
                self._image_shape, reason=NO_SIGNAL_REASON
            )
        if (
            len(bias_grad) > 0
            and indices.size / len(bias_grad) >= self.degenerate_activation_fraction
        ):
            return ReconstructionResult.empty(
                self._image_shape,
                reason=(
                    f"{indices.size}/{len(bias_grad)} trap neurons fired; "
                    "near-total activation means the bias tuning degenerated "
                    "(every trap catches the whole batch) and inversions "
                    "would be batch-mean garbage"
                ),
            )
        if self.deduplicate and len(flat) > 1:
            flat, indices = deduplicate_reconstructions(flat, indices)
            occupancy = bias_grad[indices]
        return ReconstructionResult(
            images=clip_to_image(flat, self._image_shape),
            neuron_indices=[int(index_offset + i) for i in indices],
            raw=flat,
            occupancy=occupancy,
        )

    def reconstruct(self, gradients: dict[str, np.ndarray]) -> ReconstructionResult:
        if self._image_shape is None:
            raise RuntimeError("craft() must run before reconstruct()")
        failure = self._calibration_failure()
        if failure is not None:
            return failure
        weight_grad, bias_grad = extract_imprint_gradients(gradients)
        return self._invert_guarded(weight_grad, bias_grad)
