"""QBI-style quantile-based bias initialization — Nowak et al., 2024.

QBI refines the CAH trap-weight recipe with one observation: for a batch
of ``B`` samples, the probability that a trap neuron is activated by
*exactly one* of them — the sole-activation event that makes Eq. 6 return
a sample verbatim — is

    P(sole) = B * p * (1 - p)^(B - 1)

which is maximized at ``p* = 1/B``.  CAH's fixed small constant leaves
sole-activation mass on the table at small batches and overfills traps at
large ones; QBI instead sets every trap's bias at the empirical
``(1 - 1/B)`` quantile of that neuron's projection distribution over
public data, so each attacked neuron fires for a ``1/B`` fraction of
inputs and the expected number of verbatim extractions per round is
maximal for the batch size the server anticipates.

Against OASIS the attack degrades the same way CAH does: batch expansion
multiplies the effective ``B`` without telling the server, pushing every
trap past its sole-activation optimum into multi-sample overlap — and the
random trap directions give transformed copies independent projections,
so the drop is probabilistic rather than structural (paper Fig. 6 trend).
"""

from __future__ import annotations

from repro.attacks.traps import TrapImprintAttack


class QBIAttack(TrapImprintAttack):
    """Trap-weight imprint attack tuned to the sole-activation optimum.

    Parameters
    ----------
    num_neurons:
        Number of attacked neurons ``n``.
    expected_batch_size:
        The batch size ``B`` the server anticipates; the per-neuron
        activation probability is set to ``1/B``, the maximizer of the
        sole-activation probability above.
    pixel_mean / pixel_std:
        Gaussian fallback prior when no public data is available;
        :meth:`calibrate_from_public_data` replaces the fallback with
        per-neuron empirical quantiles.
    seed:
        Seed for drawing the trap directions (the server chooses these).
    """

    name = "qbi"

    def __init__(
        self,
        num_neurons: int,
        expected_batch_size: int = 8,
        pixel_mean: float = 0.5,
        pixel_std: float = 0.25,
        seed: int = 0,
        signal_tolerance: float = 1e-10,
        deduplicate: bool = True,
    ) -> None:
        if expected_batch_size < 1:
            raise ValueError("expected_batch_size must be >= 1")
        self.expected_batch_size = expected_batch_size
        # p* = 1/B maximizes B*p*(1-p)^(B-1).  B=1 would give p=1, where
        # sole activation is certain — but a layer whose traps *all* fire
        # is indistinguishable from mistuned biases (the near-total-
        # activation guard in TrapImprintAttack rightly discards it), so
        # cap at 0.5: for a single-sample batch every fired trap still
        # returns the sample verbatim, and half the traps firing stays
        # well under the guard.
        probability = min(1.0 / expected_batch_size, 0.5)
        super().__init__(
            num_neurons,
            probability,
            pixel_mean=pixel_mean,
            pixel_std=pixel_std,
            seed=seed,
            signal_tolerance=signal_tolerance,
            deduplicate=deduplicate,
        )
