"""Tabular OASIS — the paper's future-work direction, implemented.

The paper's conclusion: "the attack principle that we uncover in Section
III-A is not limited to any data types.  Future work will focus on finding
alternative methods besides image augmentation to implement an effective
defense for tabular and textual data."

The principle transfers directly: a companion ``x'`` defends ``x``
whenever both activate the same attacked neurons.  For tabular rows the
equivalent of a label-preserving, measurement-preserving transformation is
built from two ingredients:

- **Feature-group permutation**: swapping values within exchangeable
  feature groups (e.g. symmetric sensor channels) permutes coordinates, so
  any permutation-invariant measurement — in particular RTF's mean — is
  preserved exactly, just as a 90-degree rotation permutes pixels.
- **Mean-preserving jitter**: adding zero-sum noise within a feature group
  perturbs every coordinate while keeping the group (and global) mean
  fixed — the tabular analogue of a shear.

Both keep the row's semantics for models that are (or are trained to be)
invariant to the group structure, mirroring how image augmentation trains
rotation invariance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.defense.base import ClientDefense


class TabularTransform:
    """A label-preserving transformation of one feature row."""

    name = "identity"

    def __call__(self, row: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class GroupPermutation(TabularTransform):
    """Permute coordinates within exchangeable feature groups.

    ``groups`` is a list of index arrays; each group's values are cyclically
    shifted by one, a deterministic permutation so repeated expansion is
    reproducible.  Coordinates outside every group are untouched.
    """

    def __init__(self, groups: Sequence[Sequence[int]]) -> None:
        self.groups = [np.asarray(g, dtype=np.int64) for g in groups]
        for group in self.groups:
            if len(group) < 2:
                raise ValueError("permutation groups need at least two features")
        self.name = "group_permutation"

    def __call__(self, row: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = row.copy()
        for group in self.groups:
            out[group] = np.roll(row[group], 1)
        return out


class MeanPreservingJitter(TabularTransform):
    """Add zero-sum noise: perturbs every feature, keeps the mean exact."""

    def __init__(self, scale: float = 0.1) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.name = f"jitter_{scale}"

    def __call__(self, row: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noise = rng.standard_normal(row.shape) * self.scale
        noise -= noise.mean()
        return row + noise


class TabularOasisDefense(ClientDefense):
    """OASIS Eq. 7 for feature rows: D' = D ∪ transformed companions.

    The tabular transformations building ``X'_t`` are one cyclic
    permutation over all features plus two mean-preserving jitters — three
    companions per row, matching the image suites' size.

    Parameters
    ----------
    num_features:
        Row width; the permutation cycles all of it.
    seed:
        Seed for the jitter noise (client-held, unknown to the server).
        Grid runners replace this stream via
        :meth:`~repro.defense.base.ClientDefense.reseed` with a
        configuration-fingerprint-derived one, so defended cells stay
        order/worker-invariant like every other stochastic defense.
    """

    def __init__(
        self,
        num_features: int,
        seed: int = 0,
    ) -> None:
        self.num_features = num_features
        self.transforms = [
            GroupPermutation([list(range(num_features))]),
            MeanPreservingJitter(0.05),
            MeanPreservingJitter(0.15),
        ]
        self._rng = np.random.default_rng(seed)
        self.name = "TabularOASIS"

    def expansion_factor(self) -> int:
        return len(self.transforms) + 1

    def expand_batch(
        self, rows: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Originals first, then one block per transform (like image OASIS)."""
        if rows.ndim != 2:
            raise ValueError("tabular batches must be (batch, features)")
        blocks = [rows]
        label_blocks = [labels]
        for transform in self.transforms:
            transformed = np.stack(
                [transform(row, self._rng) for row in rows]
            )
            blocks.append(transformed)
            label_blocks.append(labels.copy())
        return np.concatenate(blocks, axis=0), np.concatenate(label_blocks, axis=0)

    def process_batch(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.expand_batch(images, labels)
