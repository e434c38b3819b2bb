"""Figures 7-12: visual reconstruction galleries.

These experiments confirm the paper's qualitative claim: with OASIS in
place, the attack reconstructs a *linear combination* of an image and its
transformed counterparts — an overlapped, unrecognizable composite — while
without OASIS the reconstruction is the verbatim image.

The gallery pairs each original with the reconstruction that matches it
best; ``render_pairs`` emits terminal-friendly ASCII so the overlap is
inspectable without an image viewer, and arrays can be saved as .npy.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.attacks.imprint import ImprintedModel
from repro.attacks.registry import make_attack
from repro.data.synthetic import SyntheticImageDataset
from repro.defense.base import NoDefense
from repro.defense.registry import make_defense
from repro.experiments.reporting import render_ascii_image, side_by_side
from repro.fl.gradients import compute_batch_gradients
from repro.metrics.psnr import psnr
from repro.nn.losses import CrossEntropyLoss
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
    """Run one attack round and pair originals with their best reconstructions.

    ``suite_name`` None reproduces the without-OASIS panel; a suite name
    ("MR", "mR", "SH", "HFlip", "VFlip", "MR+SH") reproduces the defended
    panel of the corresponding figure.
    """
    defense = NoDefense() if suite_name is None else make_defense(suite_name)
    rng = np.random.default_rng((seed, batch_size))
    images, labels = dataset.sample_batch(min(batch_size, len(dataset)), rng)
    model = ImprintedModel(
        dataset.image_shape,
        num_neurons,
        dataset.num_classes,
        rng=np.random.default_rng(seed + 1),
    )
    attack = make_attack(attack_name, num_neurons, dataset.images[:200], seed=seed)
    attack.craft(model)
    processed_images, processed_labels = defense.process_batch(images, labels, rng)
    gradients, _ = compute_batch_gradients(
        model, CrossEntropyLoss(), processed_images, processed_labels
    )
    result = attack.reconstruct(gradients)

    pairs_orig, pairs_recon, scores = [], [], []
    for original in images[:max_pairs]:
        if len(result.images) == 0:
            continue
        candidate_scores = [psnr(original, recon) for recon in result.images]
        best = int(np.argmax(candidate_scores))
        pairs_orig.append(original)
        pairs_recon.append(result.images[best])
        scores.append(candidate_scores[best])
    if pairs_orig:
        originals = np.stack(pairs_orig)
        reconstructions = np.stack(pairs_recon)
    else:
        originals = np.empty((0,) + dataset.image_shape)
        reconstructions = np.empty((0,) + dataset.image_shape)
    return Gallery(
        attack=attack_name,
        defense=defense.name,
        originals=originals,
        reconstructions=reconstructions,
        psnrs=scores,
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
