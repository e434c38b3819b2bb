"""The paper's named transformation suites (Sec. IV-A, "OASIS Implementation").

A :class:`TransformSuite` maps one image to the *set* ``X'_t`` of its
transformed counterparts (Eq. 7).  The parameter choices are the paper's:

- Major rotation (MR): 90, 180, 270 degrees — three images.
- Minor rotation (mR): 30, 45, 60 degrees — three images.
- Shearing (SH): factors 0.55, 1.0, 0.9 — three images.
- Horizontal / vertical flip (HFlip / VFlip) — one image each.
- MR+SH: the union used against CAH (Fig. 6) — six images.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.augment.transforms import (
    HorizontalFlip,
    Rotate,
    Shear,
    Transform,
    VerticalFlip,
)

MAJOR_ANGLES = (90.0, 180.0, 270.0)
MINOR_ANGLES = (30.0, 45.0, 60.0)
SHEAR_FACTORS = (0.55, 1.0, 0.9)


class TransformSuite:
    """A named collection of transforms defining ``X'_t`` for each image."""

    def __init__(self, name: str, transforms: Sequence[Transform]) -> None:
        self.name = name
        self.transforms = tuple(transforms)
        if not self.transforms:
            raise ValueError("a transform suite needs at least one transform")

    def expand(self, image: np.ndarray) -> list[np.ndarray]:
        """Return the transformed counterparts X'_t of ``image`` (Eq. 7)."""
        return [transform(image) for transform in self.transforms]

    def expand_batch(self, images: np.ndarray) -> list[np.ndarray]:
        """Batched :meth:`expand`: one ``(B, C, H, W)`` block per transform.

        Uses each transform's vectorized
        :meth:`~repro.augment.Transform.apply_batch` path, so expanding a
        whole client batch costs one gather per transform instead of a
        Python loop over images.
        """
        return [transform.apply_batch(images) for transform in self.transforms]

    def __len__(self) -> int:
        return len(self.transforms)

    def __repr__(self) -> str:
        return f"TransformSuite({self.name!r}, {len(self.transforms)} transforms)"

    def __add__(self, other: "TransformSuite") -> "TransformSuite":
        """Union of two suites, e.g. MR + SH for the CAH defense (Fig. 6)."""
        return TransformSuite(
            f"{self.name}+{other.name}", self.transforms + other.transforms
        )


def major_rotation() -> TransformSuite:
    """The paper's MR suite: rotations by 90, 180, 270 degrees."""
    return TransformSuite("MR", [Rotate(angle) for angle in MAJOR_ANGLES])


def minor_rotation() -> TransformSuite:
    """The paper's mR suite: rotations by 30, 45, 60 degrees."""
    return TransformSuite("mR", [Rotate(angle) for angle in MINOR_ANGLES])


def shearing() -> TransformSuite:
    """The paper's SH suite: shear factors 0.55, 1.0, 0.9."""
    return TransformSuite("SH", [Shear(factor) for factor in SHEAR_FACTORS])


def horizontal_flip_suite() -> TransformSuite:
    """The paper's HFlip suite: one horizontal reflection (Eq. 3)."""
    return TransformSuite("HFlip", [HorizontalFlip()])


def vertical_flip_suite() -> TransformSuite:
    """The paper's VFlip suite: one vertical reflection (Eq. 4)."""
    return TransformSuite("VFlip", [VerticalFlip()])


def major_rotation_shearing() -> TransformSuite:
    """The MR+SH integration used against CAH (paper Fig. 6)."""
    return major_rotation() + shearing()


_REGISTRY = {
    "MR": major_rotation,
    "mR": minor_rotation,
    "SH": shearing,
    "HFlip": horizontal_flip_suite,
    "VFlip": vertical_flip_suite,
    "MR+SH": major_rotation_shearing,
}

class UnknownSuiteError(KeyError):
    """The requested transformation suite name is not registered.

    A ``KeyError`` subclass (the historical contract of
    :func:`suite_by_name`) whose message lists the available suites, so a
    typo'd name never surfaces as an opaque lookup failure.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.suite_name = name

    def __str__(self) -> str:
        return (
            f"unknown transform suite {self.suite_name!r}; available "
            f"suites: {', '.join(_REGISTRY)}"
        )


def suite_by_name(name: str) -> TransformSuite:
    """Look up a paper-named suite: MR, mR, SH, HFlip, VFlip, MR+SH.

    Unknown names raise :class:`UnknownSuiteError` listing what exists.
    """
    if name not in _REGISTRY:
        raise UnknownSuiteError(name)
    return _REGISTRY[name]()


def available_suites() -> tuple[str, ...]:
    """Names of the registered paper suites, in registry order."""
    return tuple(_REGISTRY)
