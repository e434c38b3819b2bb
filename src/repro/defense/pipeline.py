"""Composable defense stacks: chain client-side defenses into one pipeline.

The paper evaluates OASIS both alone and *composed* with standard FL
training — and its central claim is that batch-space defenses compose where
gradient-space defenses trade utility away (Sec. V).  A
:class:`DefensePipeline` makes that composition a first-class object: any
sequence of :class:`~repro.defense.base.ClientDefense` stages chains
through the four-stage hook surface in order

    process_batch -> (gradient computation) -> process_gradients
                  -> finalize_update

with batch hooks applied first-to-last (so ``MR>dpsgd`` expands the batch
before DP-SGD's per-sample clipping sees it), gradient hooks applied in the
same stage order, and expansion factors multiplying — the FedAvg example
count reported upstream stays the *pre*-expansion batch size no matter how
many stages expand (see
:func:`repro.fl.gradients.compute_defended_update`), while ``finalize_update``
still receives the fully-expanded count for noise calibration.

Stochasticity stays order/worker-invariant: :meth:`DefensePipeline.reseed`
hands every stage its own seed derived from the pipeline's base seed, the
stage index, and the stage name, so adding or reordering stages never
perturbs another stage's stream and serial/parallel/resumed sweeps remain
byte-identical.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.defense.base import ClientDefense
from repro.registry import STAGE_SEPARATOR
from repro.utils.rng import derive_seed


class DefensePipeline(ClientDefense):
    """A sequence of client-side defenses applied as one.

    Parameters
    ----------
    stages:
        The defenses to chain, applied in order at every hook.  Nested
        pipelines are flattened, so composing compositions never builds a
        tree.  At most one stage may request per-sample clipping
        (``per_sample_clip``): two clipping regimes in one update have no
        well-defined composition, and silently picking one would run a
        different experiment than the one asked for.

    The display name joins the stage names with ``">"``, matching the
    registry's spec-string grammar.
    """

    def __init__(self, stages: Sequence[ClientDefense]) -> None:
        flat: list[ClientDefense] = []
        for stage in stages:
            if isinstance(stage, DefensePipeline):
                flat.extend(stage.stages)
            else:
                flat.append(stage)
        if not flat:
            raise ValueError("a defense pipeline needs at least one stage")
        self.stages = tuple(flat)
        clippers = [
            stage for stage in self.stages if stage.per_sample_clip is not None
        ]
        if len(clippers) > 1:
            raise ValueError(
                "at most one pipeline stage may set per_sample_clip; got "
                f"{[stage.name for stage in clippers]} — two per-sample "
                "clipping regimes cannot compose in a single update"
            )
        self.per_sample_clip = (
            clippers[0].per_sample_clip if clippers else None
        )
        self.name = STAGE_SEPARATOR.join(
            stage.name for stage in self.stages
        )

    def expansion_factor(self) -> int:
        """|D'| / |D| through the whole chain: the stage factors multiply."""
        factor = 1
        for stage in self.stages:
            factor *= stage.expansion_factor()
        return factor

    def reseed(self, base_seed: int) -> None:
        """Give every stage an independent stream derived from ``base_seed``.

        Keyed by stage index *and* name, so two identically-named stages
        (e.g. the same jitter twice) still draw independently, and a
        stage's stream never moves because a sibling was added or removed.
        """
        for index, stage in enumerate(self.stages):
            stage.reseed(derive_seed(base_seed, "stage", str(index), stage.name))

    def process_batch(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        for stage in self.stages:
            images, labels = stage.process_batch(images, labels, rng)
        return images, labels

    def process_gradients(
        self,
        gradients: dict[str, np.ndarray],
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        for stage in self.stages:
            gradients = stage.process_gradients(gradients, rng)
        return gradients

    def finalize_update(
        self,
        gradients: dict[str, np.ndarray],
        num_examples: int,
        rng: np.random.Generator,
    ) -> dict[str, np.ndarray]:
        # Chain the stages' own finalize hooks with the shared
        # post-expansion example count; stage order matches the
        # process_gradients pass.
        for stage in self.stages:
            gradients = stage.finalize_update(gradients, num_examples, rng)
        return gradients

    def __repr__(self) -> str:
        return f"DefensePipeline({self.name!r}, {len(self.stages)} stages)"
