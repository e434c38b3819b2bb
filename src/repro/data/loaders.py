"""Minibatch iteration over datasets with deterministic shuffling."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.data.synthetic import SyntheticImageDataset


class DataLoader:
    """Iterates (images, labels) minibatches over a dataset.

    Shuffling is reseeded per epoch from a root seed, so two loaders built
    with the same arguments replay identical batch streams — required for
    the paper's with/without-OASIS accuracy comparison (Table I) to be a
    controlled experiment.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        batch_size: int,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self._epoch = 0

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        if self.shuffle:
            rng = np.random.default_rng((self.seed, self._epoch))
            order = rng.permutation(n)
        else:
            order = np.arange(n)
        self._epoch += 1
        end = n - (n % self.batch_size) if self.drop_last else n
        for start in range(0, end, self.batch_size):
            indices = order[start : start + self.batch_size]
            if self.drop_last and len(indices) < self.batch_size:
                break
            yield self.dataset.batch(indices)


def class_balanced_batch(
    dataset: SyntheticImageDataset,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a batch in which every label appears at most once.

    The linear-model inversion experiment (paper Sec. IV-D) assumes batches
    whose images carry unique labels; this helper constructs them.
    """
    classes = np.unique(dataset.labels)
    if batch_size > len(classes):
        raise ValueError(
            f"cannot draw {batch_size} unique labels from {len(classes)} classes"
        )
    chosen = rng.choice(classes, size=batch_size, replace=False)
    indices = np.array(
        [rng.choice(np.flatnonzero(dataset.labels == c)) for c in chosen]
    )
    return dataset.batch(indices)
