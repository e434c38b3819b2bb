"""Baseline defenses the paper compares against (Secs. I, V; Fig. 14).

- :class:`DPGradientDefense` — DP-SGD-style per-sample clipping plus
  Gaussian noise (Abadi et al.).  The paper's motivation: at noise levels
  that hide reconstructions, accuracy collapses.
- :class:`GradientPruningDefense` — magnitude sparsification (Zhu et al. /
  Soteria-style); the paper notes pruned gradients still leak content.
- :class:`TransformReplaceDefense` — the ATSPrivacy-style mechanism of Gao
  et al. (CVPR 2021) that *replaces* each image with one transformed
  version instead of unioning transforms in.  Fig. 14 shows RTF defeats it:
  a replaced image can still be a neuron's sole activator, so it is
  reconstructed verbatim (just transformed — content revealed).

All three register in :mod:`repro.defense.registry` (``dpsgd``, ``dpfed``,
``prune``, ``ats``) and compose with OASIS through
:class:`~repro.defense.pipeline.DefensePipeline` spec strings like
``"MR>dpsgd"``.  The stochastic ones (noise, transform choice) draw from
the private generator installed by
:meth:`~repro.defense.base.ClientDefense.reseed` when a grid runner has
derived one from its cell's configuration fingerprint, falling back to the
caller-provided generator otherwise — never from a fixed or global stream,
so defended cells stay order- and worker-invariant.
"""

from __future__ import annotations

import numpy as np

from repro.augment.suites import TransformSuite, suite_by_name
from repro.defense.base import ClientDefense


class DPGradientDefense(ClientDefense):
    """Update-level DP: clip the gradient to ``clip_norm``, add N(0, sigma^2).

    ``noise_multiplier`` is sigma / clip_norm, the standard DP-SGD
    parameterization; noise is added to the *aggregate* update the client
    uploads, which is the FL-practical variant (DP-FedSGD).
    """

    def __init__(
        self,
        clip_norm: float = 1.0,
        noise_multiplier: float = 0.1,
    ) -> None:
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self.name = f"DP(sigma={noise_multiplier})"

    def process_gradients(
        self,
        gradients: dict[str, np.ndarray],
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        rng = self._generator(rng)
        total_norm = np.sqrt(
            sum(float(np.sum(g ** 2)) for g in gradients.values())
        )
        scale = min(1.0, self.clip_norm / max(total_norm, 1e-12))
        sigma = self.noise_multiplier * self.clip_norm
        noised = {}
        for name, grad in gradients.items():
            noise = rng.standard_normal(grad.shape) * sigma
            noised[name] = grad * scale + noise
        return noised


class DPSGDDefense(ClientDefense):
    """Abadi et al.'s DP-SGD: per-example clipping + calibrated Gaussian noise.

    Each example's gradient is clipped to ``clip_norm`` (= C); the client
    uploads the mean of clipped gradients plus N(0, (z * C / B)^2) noise,
    where ``z`` is ``noise_multiplier``.  Two properties matter for the
    paper's argument:

    - Clipping alone cannot stop gradient inversion: it rescales each
      example's gradients uniformly, and Eq. 6 divides two gradients of the
      same example, so the ratio — the reconstruction — is unchanged.
    - Only the *noise* breaks reconstruction, and the z needed to do so
      also perturbs every honest training step (the utility cost the paper
      contrasts OASIS against).
    """

    def __init__(
        self,
        clip_norm: float = 1.0,
        noise_multiplier: float = 0.1,
    ) -> None:
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self.per_sample_clip = clip_norm
        self.name = f"DPSGD(z={noise_multiplier})"

    def finalize_update(
        self,
        gradients: dict[str, np.ndarray],
        num_examples: int,
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        sigma = self.noise_multiplier * self.clip_norm / max(num_examples, 1)
        if sigma == 0.0:
            return gradients
        rng = self._generator(rng)
        return {
            name: grad + rng.standard_normal(grad.shape) * sigma
            for name, grad in gradients.items()
        }


class GradientPruningDefense(ClientDefense):
    """Zero out the smallest-magnitude fraction of every gradient tensor."""

    def __init__(self, prune_fraction: float = 0.9) -> None:
        if not 0.0 <= prune_fraction < 1.0:
            raise ValueError("prune_fraction must be in [0, 1)")
        self.prune_fraction = prune_fraction
        self.name = f"Prune({prune_fraction})"

    def process_gradients(
        self,
        gradients: dict[str, np.ndarray],
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        pruned = {}
        for name, grad in gradients.items():
            flat = np.abs(grad).reshape(-1)
            k = int(len(flat) * self.prune_fraction)
            if k == 0:
                pruned[name] = grad.copy()
                continue
            threshold = np.partition(flat, k - 1)[k - 1]
            mask = np.abs(grad) > threshold
            pruned[name] = grad * mask
        return pruned


class TransformReplaceDefense(ClientDefense):
    """ATSPrivacy-style: replace each image with one transformed version.

    The batch size is unchanged — no union with the original — so the attack
    principle still applies to the transformed images themselves, and RTF
    reconstructs them perfectly (paper Fig. 14).
    """

    def __init__(self, suite: "TransformSuite | str" = "MR") -> None:
        if isinstance(suite, str):
            suite = suite_by_name(suite)
        self.suite = suite
        self.name = f"ATS({suite.name})"

    def process_batch(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        rng = self._generator(rng)
        choices = rng.integers(0, len(self.suite.transforms), size=len(images))
        replaced = np.stack(
            [
                self.suite.transforms[choice](image)
                for image, choice in zip(images, choices)
            ]
        ).astype(images.dtype, copy=False)
        return replaced, labels.copy()

