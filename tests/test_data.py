"""Synthetic datasets and loaders: determinism, structure, iteration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    SyntheticImageDataset,
    class_balanced_batch,
    make_synthetic_dataset,
    synthetic_cifar100,
    synthetic_imagenet,
    train_test_split,
)


class TestGeneration:
    def test_shapes_and_ranges(self, tiny_dataset):
        assert tiny_dataset.images.shape == (24, 3, 16, 16)
        assert tiny_dataset.images.min() >= 0.0
        assert tiny_dataset.images.max() <= 1.0
        assert tiny_dataset.labels.shape == (24,)

    def test_deterministic(self):
        a = make_synthetic_dataset(3, 4, image_size=8, seed=5)
        b = make_synthetic_dataset(3, 4, image_size=8, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = make_synthetic_dataset(3, 4, image_size=8, seed=5)
        b = make_synthetic_dataset(3, 4, image_size=8, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_all_classes_present(self, tiny_dataset):
        assert set(np.unique(tiny_dataset.labels)) == set(range(4))

    def test_within_class_similarity_exceeds_between(self, tiny_dataset):
        # Class structure: same-class images are closer than cross-class.
        images = tiny_dataset.images.reshape(len(tiny_dataset), -1)
        labels = tiny_dataset.labels
        same, cross = [], []
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                dist = np.linalg.norm(images[i] - images[j])
                (same if labels[i] == labels[j] else cross).append(dist)
        assert np.mean(same) < np.mean(cross)

    def test_imagenet_factory(self):
        ds = synthetic_imagenet(samples_per_class=2, image_size=16)
        assert ds.num_classes == 10
        assert ds.name == "imagenet"
        assert "tench" in ds.class_names

    def test_cifar100_factory(self):
        ds = synthetic_cifar100(samples_per_class=1)
        assert ds.num_classes == 100
        assert ds.image_shape == (3, 32, 32)

    def test_flat_dim(self, tiny_dataset):
        assert tiny_dataset.flat_dim == 3 * 16 * 16

    def test_pixel_statistics(self, tiny_dataset):
        means = tiny_dataset.images.reshape(len(tiny_dataset), -1).mean(axis=1)
        assert 0.3 < means.mean() < 0.7
        assert means.std() > 0.0

    def test_validation_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset(np.zeros((3, 1, 2, 2)), np.zeros(2), 2)

    def test_validation_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset(np.zeros((3, 4)), np.zeros(3), 2)


class TestSubsetsAndBatches:
    def test_subset(self, tiny_dataset):
        sub = tiny_dataset.subset(np.array([0, 2, 4]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.images[1], tiny_dataset.images[2])

    def test_batch_dtype(self, tiny_dataset):
        images, labels = tiny_dataset.batch(np.array([0, 1]))
        assert images.dtype == np.float64
        assert labels.dtype == np.int64

    def test_sample_batch_no_replacement(self, tiny_dataset, rng):
        images, labels = tiny_dataset.sample_batch(24, rng)
        assert len(images) == 24

    def test_train_test_split_disjoint_and_complete(self, tiny_dataset):
        train, test = train_test_split(tiny_dataset, 0.25, seed=1)
        assert len(train) + len(test) == len(tiny_dataset)
        assert len(test) == 6

    def test_train_test_split_validates_fraction(self, tiny_dataset):
        with pytest.raises(ValueError):
            train_test_split(tiny_dataset, 1.5)


class TestDataLoader:
    def test_batch_count(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=10)
        assert len(loader) == 3  # 24 -> 10 + 10 + 4

    def test_drop_last(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=10, drop_last=True)
        assert len(loader) == 2
        batches = list(loader)
        assert all(len(b[0]) == 10 for b in batches)

    def test_covers_all_samples(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=7, shuffle=True, seed=3)
        seen = sum(len(b[0]) for b in loader)
        assert seen == 24

    def test_same_seed_same_stream(self, tiny_dataset):
        a = DataLoader(tiny_dataset, batch_size=8, seed=9)
        b = DataLoader(tiny_dataset, batch_size=8, seed=9)
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_epochs_reshuffle(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=24, seed=0)
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)

    def test_no_shuffle_preserves_order(self, tiny_dataset):
        loader = DataLoader(tiny_dataset, batch_size=24, shuffle=False)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, tiny_dataset.labels)

    def test_invalid_batch_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            DataLoader(tiny_dataset, batch_size=0)


class TestClassBalancedBatch:
    def test_unique_labels(self, tiny_dataset, rng):
        _, labels = class_balanced_batch(tiny_dataset, 4, rng)
        assert len(set(labels.tolist())) == 4

    def test_too_many_unique_rejected(self, tiny_dataset, rng):
        with pytest.raises(ValueError):
            class_balanced_batch(tiny_dataset, 5, rng)
