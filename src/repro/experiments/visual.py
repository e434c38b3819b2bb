"""Figures 7-12: visual reconstruction galleries.

These experiments confirm the paper's qualitative claim: with OASIS in
place, the attack reconstructs a *linear combination* of an image and its
transformed counterparts — an overlapped, unrecognizable composite — while
without OASIS the reconstruction is the verbatim image.

A gallery is a view of one :func:`~repro.experiments.runner.run_trial`:
it pairs each original with the reconstruction that matches it best, read
off one pairwise-PSNR matrix.  ``render_pairs`` emits terminal-friendly
ASCII so the overlap is inspectable without an image viewer, and arrays
can be saved as .npy.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.defense.base import NoDefense
from repro.defense.registry import make_defense
from repro.experiments.reporting import render_ascii_image, side_by_side
from repro.experiments.runner import run_trial
from repro.metrics.psnr import pairwise_psnr
from repro.utils.checkpoint import atomic_write_bytes


@dataclass
class Gallery:
    """Matched (original, reconstruction, psnr) triples for one setting."""

    attack: str
    defense: str
    originals: np.ndarray
    reconstructions: np.ndarray
    psnrs: list[float]

    def save(self, directory: str | Path) -> None:
        """Persist both arrays crash-safely (atomic temp-file + replace).

        A plain ``np.save`` straight to the target path leaves a torn,
        unloadable ``.npy`` when the process dies mid-write; galleries are
        artifacts other tooling loads later, so they get the same atomic
        contract as every other persisted file in the repo.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        tag = f"{self.attack}_{self.defense}".replace("+", "_")
        for name, array in (
            ("originals", self.originals),
            ("reconstructions", self.reconstructions),
        ):
            buffer = io.BytesIO()
            np.save(buffer, array)  # repro-lint: disable=no-raw-write -- serializes into an in-memory buffer; the file write below is atomic
            atomic_write_bytes(directory / f"{tag}_{name}.npy", buffer.getvalue())


def reconstruction_gallery(
    dataset: SyntheticImageDataset,
    attack_name: str,
    suite_name: Optional[str],
    batch_size: int,
    num_neurons: int,
    seed: int = 0,
    max_pairs: int = 4,
) -> Gallery:
    """Run one attack trial and pair originals with their best reconstructions.

    ``suite_name`` None reproduces the without-OASIS panel; a suite name
    ("MR", "mR", "SH", "HFlip", "VFlip", "MR+SH") reproduces the defended
    panel of the corresponding figure.  The first ``max_pairs`` originals
    are paired; an attack that reconstructed nothing pairs none.
    """
    defense = NoDefense() if suite_name is None else make_defense(suite_name)
    trial = run_trial(dataset, attack_name, batch_size, num_neurons, defense, seed)
    candidates = trial.result.images
    if len(candidates) == 0:
        originals = trial.images[:0]
        return Gallery(attack_name, defense.name, originals, originals, [])
    originals = trial.images[:max_pairs]
    scores = pairwise_psnr(originals, candidates)  # [reconstruction, original]
    best = scores.argmax(axis=0)
    return Gallery(
        attack=attack_name,
        defense=defense.name,
        originals=originals,
        reconstructions=candidates[best],
        psnrs=scores[best, np.arange(len(originals))].tolist(),
    )


def render_pairs(gallery: Gallery, width: int = 28, max_pairs: int = 2) -> str:
    """ASCII rendering: original (left) vs reconstruction (right)."""
    blocks = []
    for i in range(min(max_pairs, len(gallery.originals))):
        left = render_ascii_image(gallery.originals[i], width=width)
        right = render_ascii_image(gallery.reconstructions[i], width=width)
        header = (
            f"[{gallery.attack} | defense={gallery.defense}] "
            f"original vs reconstruction  (PSNR {gallery.psnrs[i]:.1f} dB)"
        )
        blocks.append(header + "\n" + side_by_side(left, right))
    return "\n\n".join(blocks)
