"""Procedural image datasets standing in for ImageNet and CIFAR100.

The paper evaluates on an ImageNet 10-class subset (Imagenette) and on
CIFAR100.  Neither is downloadable in this offline environment, so we
synthesize structured datasets that exercise the identical code paths:

- Each class has a smooth *prototype field* (a superposition of random
  low-frequency 2D cosines per channel) plus a class-specific geometric
  marker, so classes are visually and statistically distinct and a CNN can
  learn them (Table I regime).
- Each sample perturbs its prototype with an instance field, amplitude
  jitter, and pixel noise, so batches contain genuinely distinct images for
  the reconstruction attacks to recover.

The reconstruction attacks operate on raw pixel algebra (per-image scalar
measurements and ReLU activations), not semantics, so this substitution
preserves the behaviour under study.  See DESIGN.md section 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

IMAGENETTE_CLASSES = (
    "tench",
    "English springer",
    "cassette player",
    "chain saw",
    "church",
    "French horn",
    "garbage truck",
    "gas pump",
    "golf ball",
    "parachute",
)


@dataclass
class SyntheticImageDataset:
    """In-memory labelled image dataset in NCHW float layout, pixels in [0,1]."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "synthetic"
    class_names: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise ValueError("images must be (N, C, H, W)")
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels length mismatch")
        if not self.class_names:
            self.class_names = tuple(f"class_{i}" for i in range(self.num_classes))

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    @property
    def flat_dim(self) -> int:
        return int(np.prod(self.image_shape))

    def subset(self, indices: np.ndarray) -> "SyntheticImageDataset":
        return SyntheticImageDataset(
            self.images[indices],
            self.labels[indices],
            self.num_classes,
            name=self.name,
            class_names=self.class_names,
        )

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (images, labels) as float64/int64 arrays for training."""
        return self.images[indices].astype(np.float64), self.labels[indices]

    def sample_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        indices = rng.choice(len(self), size=batch_size, replace=False)
        return self.batch(indices)


def _smooth_field(
    rng: np.random.Generator,
    channels: int,
    height: int,
    width: int,
    waves: int = 4,
    max_frequency: float = 3.0,
) -> np.ndarray:
    """Superpose random low-frequency cosines into a (C, H, W) field."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    yy /= height
    xx /= width
    out = np.zeros((channels, height, width))
    for c in range(channels):
        for _ in range(waves):
            fx, fy = rng.uniform(0.5, max_frequency, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amplitude = rng.uniform(0.4, 1.0)
            out[c] += amplitude * np.cos(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    return out


def _class_marker(
    rng: np.random.Generator, channels: int, height: int, width: int
) -> np.ndarray:
    """A class-distinctive soft disk with random position, radius, colour."""
    cy = rng.uniform(0.25, 0.75) * height
    cx = rng.uniform(0.25, 0.75) * width
    radius = rng.uniform(0.12, 0.28) * min(height, width)
    colour = rng.uniform(-1.0, 1.0, size=channels)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    dist2 = (yy - cy) ** 2 + (xx - cx) ** 2
    bump = np.exp(-dist2 / (2.0 * radius ** 2))
    return colour[:, None, None] * bump[None, :, :]


def _normalize01(image: np.ndarray) -> np.ndarray:
    low = image.min()
    high = image.max()
    if high - low < 1e-12:
        return np.zeros_like(image)
    return (image - low) / (high - low)


# Every synthetic image is RGB; each sample adds its instance field at this
# weight and per-pixel Gaussian noise at this standard deviation.
_CHANNELS = 3
_NOISE_LEVEL = 0.06
_INSTANCE_WEIGHT = 0.25


def make_synthetic_dataset(
    num_classes: int,
    samples_per_class: int,
    image_size: int = 32,
    seed: int = 0,
    name: str = "synthetic",
    class_names: Optional[Sequence[str]] = None,
) -> SyntheticImageDataset:
    """Generate a class-structured dataset of smooth textured RGB images.

    Samples of a class share a prototype field and marker; each sample mixes
    in its own instance field and noise, then is renormalized to [0, 1].
    """
    proto_rng, marker_rng, sample_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    prototypes = [
        _smooth_field(proto_rng, _CHANNELS, image_size, image_size)
        for _ in range(num_classes)
    ]
    markers = [
        _class_marker(marker_rng, _CHANNELS, image_size, image_size)
        for _ in range(num_classes)
    ]
    total = num_classes * samples_per_class
    images = np.empty((total, _CHANNELS, image_size, image_size), dtype=np.float32)
    labels = np.empty(total, dtype=np.int64)
    index = 0
    for label in range(num_classes):
        base = prototypes[label] + 1.5 * markers[label]
        for _ in range(samples_per_class):
            amplitude = sample_rng.uniform(0.8, 1.2)
            instance = _smooth_field(
                sample_rng, _CHANNELS, image_size, image_size, waves=2, max_frequency=6.0
            )
            noise = sample_rng.standard_normal(base.shape) * _NOISE_LEVEL
            raw = amplitude * base + _INSTANCE_WEIGHT * instance + noise
            images[index] = _normalize01(raw).astype(np.float32)
            labels[index] = label
            index += 1
    order = np.random.default_rng(seed + 1).permutation(total)
    return SyntheticImageDataset(
        images[order],
        labels[order],
        num_classes,
        name=name,
        class_names=tuple(class_names) if class_names else (),
    )


def synthetic_imagenet(
    samples_per_class: int = 32,
    image_size: int = 64,
    seed: int = 1001,
) -> SyntheticImageDataset:
    """Stand-in for the paper's 10-class ImageNet (Imagenette) subset."""
    return make_synthetic_dataset(
        num_classes=10,
        samples_per_class=samples_per_class,
        image_size=image_size,
        seed=seed,
        name="imagenet",
        class_names=IMAGENETTE_CLASSES,
    )


def synthetic_cifar100(
    samples_per_class: int = 8,
    seed: int = 2002,
) -> SyntheticImageDataset:
    """Stand-in for CIFAR100: 100 classes of 3x32x32 images."""
    return make_synthetic_dataset(
        num_classes=100,
        samples_per_class=samples_per_class,
        image_size=32,
        seed=seed,
        name="cifar100",
    )


def train_test_split(
    dataset: SyntheticImageDataset,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[SyntheticImageDataset, SyntheticImageDataset]:
    """Split into train/test with a seeded shuffle, stratification-free."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_test = max(1, int(len(dataset) * test_fraction))
    return dataset.subset(order[n_test:]), dataset.subset(order[:n_test])
