"""Client-side defense interface: the four-stage pipeline surface.

A defense acts at explicit points of a client's local update, in order:

- ``process_batch``: preprocess the training batch *before* gradients are
  computed (ATSPrivacy-style replacement acts here; OASIS expansion rides
  this hook too — its ``expand_batch`` is the batch-growing special case).
- gradient computation (per-sample clipped when ``per_sample_clip`` is
  set, plain batch gradients otherwise — see
  :func:`repro.fl.gradients.compute_defended_update`).
- ``process_gradients``: post-process the computed gradients (pruning,
  update-level noising).
- ``finalize_update``: the last hook before upload; receives the batch
  size the gradients were actually averaged over, for defenses whose
  noise calibration depends on it (DP-SGD's sigma * C / B).

Every hook defaults to identity so defenses override only what they use.
Defenses compose through :class:`repro.defense.pipeline.DefensePipeline`,
which chains any sequence of stages and multiplies their
``expansion_factor`` contributions, and resolve by name through
:mod:`repro.defense.registry`.

Stochastic defenses (DP noise, transform-replace) draw from a *private*
generator installed by :meth:`ClientDefense.reseed` — derived from a
configuration-fingerprint seed via :func:`repro.utils.rng.rng_for` — so a
sweep cell's noise is invariant to execution order and worker assignment.
Without :meth:`reseed` they fall back to the caller-provided generator.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import rng_for


class ClientDefense:
    """No-op defense; base class for all client-side mechanisms."""

    name = "none"

    # When set (a positive float), the client computes per-example
    # gradients, clips each to this L2 norm, and averages — the DP-SGD
    # microbatch discipline.  None means ordinary batch gradients.
    per_sample_clip: float | None = None

    # Private generator installed by reseed(); stochastic hooks prefer it
    # over the caller's generator when present.
    _rng: "np.random.Generator | None" = None

    def expansion_factor(self) -> int:
        """|D'| / |D| of :meth:`process_batch`; 1 for non-expanding defenses."""
        return 1

    def reseed(self, base_seed: int) -> None:
        """Install a private generator keyed by ``(base_seed, self.name)``.

        Called by the registry/pipeline with a fingerprint-derived seed so
        every stochastic stage draws an order- and worker-invariant stream.
        Deterministic defenses inherit this and simply never consume it.
        """
        self._rng = rng_for(base_seed, "defense", self.name)

    def _generator(self, rng: np.random.Generator) -> np.random.Generator:
        """The stream stochastic hooks draw from: private when reseeded."""
        return self._rng if self._rng is not None else rng

    def process_batch(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        return images, labels

    def process_gradients(
        self,
        gradients: dict[str, np.ndarray],
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        """Post-process the gradients; identity by default.

        Overriding a gradient hook keeps the update's arrays out of the
        tensor buffer pool, so the defense may keep what it returns.
        """
        return gradients

    def finalize_update(
        self,
        gradients: dict[str, np.ndarray],
        num_examples: int,
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        """Last hook before upload; identity by default.

        Runs *after* :meth:`process_gradients` — both are invoked by
        :func:`repro.fl.gradients.compute_defended_update`, so a defense
        overriding both gets both applied, exactly once each.  Override
        this one when the action depends on the batch size the gradients
        were averaged over (DP-SGD's sigma * C / B noise calibration).
        Overriding it keeps the arrays out of the pool, as above.
        """
        return gradients

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoDefense(ClientDefense):
    """Explicit "WO" (without OASIS) arm of the paper's comparisons."""

    name = "WO"
